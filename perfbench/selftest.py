#!/usr/bin/env python3
"""Self-tests of the benchmark's own machinery.

`check_selftest` feeds each output check one correct and one corrupted
result -- a flipped verdict, a count off by one, a record with an edge
removed, a view set that explains nothing, a witness equal to the
original, a failing fixture -- and reports every check that accepts the
corruption or rejects the correct result.  Every benchmark run calls it.

`tracer_selftest` checks that the tracer sees calls made through
by-name bindings, times generators across resumptions, counts exactly
the placements the programs' own budgets count, and restores every
original.

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import dataclasses
import sys
import time
from pathlib import Path


def _fixture():
    from causalrnr import fixtures

    parsed = fixtures.load("indirect-order")
    return parsed.execution, parsed.views


def _corrupt_views(views):
    """The views with process 1's view reversed: no longer an explanation."""
    from causalrnr.model import View

    first = views.views[0]
    return views.replace(View(first.process, tuple(reversed(first.sequence))))


def _expect(problems, label, call, rejects):
    import checks

    try:
        call()
        rejected = False
    except checks.CheckFailed:
        rejected = True
    if rejected != rejects:
        problems.append(f"self-test: {label} was {'rejected' if rejected else 'accepted'}")


def check_selftest() -> list[str]:
    import checks
    import reference
    from causalrnr import battery, oracle, race_record, view_record
    from causalrnr.records import Record

    execution, views = _fixture()
    program = execution.program
    offline = view_record.minimal_view_record(views, execution)
    online = view_record.online_record_from_views(views, execution)
    race = race_record.minimal_race_record(views, execution)
    empty = Record.of({p: frozenset() for p in program.processes})
    problems: list[str] = []

    verdict = oracle.is_good_view_record(views, program, offline, max_ops=10, node_budget=10**6)
    flipped = dataclasses.replace(verdict, good=not verdict.good)
    _expect(problems, "good verdict", lambda: checks.minimal_good(verdict, "t"), False)
    _expect(problems, "flipped verdict", lambda: checks.minimal_good(flipped, "t"), True)

    found = list(oracle.enumerate_certifying(program, empty, "strong_causal",
                                             max_ops=10, node_budget=10**6))
    count = reference.count_certifying(program, "strong_causal")
    _expect(problems, "reference count", lambda: checks.certifying_sets(found, views, count, "t"), False)
    _expect(problems, "count off by one",
            lambda: checks.certifying_sets(found, views, count + 1, "t"), True)

    process, edge = next(offline.all_edges())
    cut = online.drop(process, edge)
    _expect(problems, "records", lambda: checks.records(views, execution, offline, online, race, "t"), False)
    _expect(problems, "record with an edge removed",
            lambda: checks.records(views, execution, offline, cut, race, "t"), True)

    witness = oracle.necessity_witness_view_record(views, execution, process, edge)
    _expect(problems, "witness",
            lambda: checks.witness(witness, views, execution, offline, process, edge, "views", "t"), False)
    _expect(problems, "witness equal to the original",
            lambda: checks.witness(views, views, execution, offline, process, edge, "views", "t"), True)

    bad = _corrupt_views(views)
    _expect(problems, "explanation",
            lambda: checks.explanation(views, execution, "strong_causal", views, "t"), False)
    _expect(problems, "view set that explains nothing",
            lambda: checks.explanation(bad, execution, "strong_causal", None, "t"), True)

    def battery_on(v):
        try:
            return battery.run_battery(execution, v, max_ops=10)
        except battery.BatteryFailure as failure:
            return failure

    _expect(problems, "battery", lambda: checks.battery(battery_on(views)), False)
    _expect(problems, "failing fixture", lambda: checks.battery(battery_on(bad)), True)
    return problems


def tracer_selftest() -> list[str]:
    import tracer as tracing
    from causalrnr import consistency, oracle, relations
    from causalrnr.records import Record

    execution, views = _fixture()
    program = execution.program
    empty = Record.of({p: frozenset() for p in program.processes})
    problems: list[str] = []
    original = oracle.transitive_closure

    t = tracing.Tracer()
    t.install()
    try:
        if oracle.transitive_closure is original or relations.transitive_closure is original:
            problems.append("a by-name binding of transitive_closure was not wrapped")
        consistency.find_explanation(execution, "causal", max_ops=10, node_budget=10**6)
        oracle.is_good_race_record(views, program, empty, max_ops=10, node_budget=10**6)
        # time the consumer's own next() calls, and sleep between them
        sets, resuming = 0, 0.0
        found = oracle.enumerate_certifying(program, empty, "causal", max_ops=10, node_budget=10**6)
        while True:
            start = time.perf_counter()
            done = next(found, None) is None
            resuming += time.perf_counter() - start
            if done:
                break
            sets += 1
            time.sleep(0.002)
    finally:
        t.uninstall()

    funcs = t.per_function()
    placements = t.counters["search.placements"]
    if placements == 0 or placements != t.budget_placements():
        problems.append(f"placements {placements} != NodeBudget.explored total {t.budget_placements()}")
    callers = {caller for name, caller in t.spans if name == "relations.transitive_closure"}
    if not any(c.startswith("oracle.") for c in callers):
        problems.append(f"closures called from oracle were not seen (callers {sorted(callers)})")
    total = funcs["oracle.enumerate_certifying"][2]
    if not 0.5 * resuming <= total <= resuming:
        problems.append(f"enumerate_certifying timed {total:.4f}s of {resuming:.4f}s spent resuming it")
    if t.counters["oracle.certifying"] < sets:
        problems.append("yielded certifying sets were not counted")
    if oracle.transitive_closure is not original or not tracing.is_pristine():
        problems.append("uninstall left a wrapper in place")
    return problems


def main() -> int:
    here = Path(__file__).resolve().parent
    sys.path.insert(0, str(here.parent / "src"))
    sys.path.insert(0, str(here))
    problems = check_selftest() + tracer_selftest()
    for p in problems:
        print(p)
    print("self-test", "FAILED" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
