"""The full invariant battery run by the fuzzer on one fixture.

One call exercises, against the brute-force oracle, everything the record
constructions promise: the offline view record is good and every edge of
it is necessary; the online record has exactly its closed form, contains
the offline record, and is good; the race record is good and every edge
necessary both by witness construction and by enumeration; and the
structural observations relating the intermediate relations hold.

The stages share per-fixture state: one `oracle.Goodness` answers the
goodness verdicts (the view record with each edge dropped, the online
record, the race record and the race record with each edge dropped), so
what depends on the views alone is computed once per fixture, and one
`RaceAnalysis` serves the race record, its witnesses and the
observations.  The one-shot `oracle.is_good_view_record` and
`oracle.is_good_race_record` take the same path with a fresh state.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from causalrnr import oracle
from causalrnr.consistency import (
    STRONG_CAUSAL,
    check_causal,
    check_strong_causal,
    strong_causal_order,
)
from causalrnr.model import Execution, ViewSet, WRITE, data_race_order, derive_writes_to
from causalrnr.race_record import RaceAnalysis
from causalrnr.relations import Relation, transitive_closure
from causalrnr.view_record import (
    indirectly_enforced,
    minimal_view_record,
    online_record_from_views,
    sco_from_others,
)


class BatteryFailure(AssertionError):
    def __init__(self, stage: str, detail: str):
        super().__init__(f"[{stage}] {detail}")
        self.stage = stage
        self.detail = detail


@dataclass
class BatteryStats:
    view_edges_checked: int = 0
    race_edges_checked: int = 0
    certifying_seen: int = 0
    stages: list[str] = field(default_factory=list)


def _fail(stage: str, detail: str) -> None:
    raise BatteryFailure(stage, detail)


def run_battery(execution: Execution, views: ViewSet, *, max_ops: int | None = None) -> BatteryStats:
    stats = BatteryStats()

    # the fixture itself must be consistent
    bad = check_strong_causal(views, execution)
    if bad is not None:
        _fail("fixture", f"not strongly causal: {bad}")
    if check_causal(views, execution) is not None:
        _fail("fixture", "strongly causal fixture fails the causal check")
    stats.stages.append("fixture")

    goodness = oracle.Goodness(views, execution.program)
    offline, sco = _view_record_stage(execution, views, goodness, stats, max_ops)
    _online_record_stage(execution, views, goodness, offline, stats, max_ops)
    analysis = RaceAnalysis(views, execution.program)
    _race_record_stage(analysis, goodness, stats, max_ops)
    _observation_stage(execution, views, analysis, sco, stats)
    return stats


def _view_record_stage(execution, views, goodness, stats, max_ops):
    """Returns the offline record and the SCO, which the later stages share."""
    program = execution.program
    record = minimal_view_record(views, execution)
    sco = strong_causal_order(views, program)

    # goodness, and the replay-preservation assertions on every certifying set
    kept = {
        view.process: indirectly_enforced(views, program, view.process).pairs
        for view in views.views
    }
    seen = 0
    for candidate in oracle.enumerate_certifying(
        program, record, STRONG_CAUSAL, max_ops=max_ops
    ):
        seen += 1
        sco_replay = strong_causal_order(candidate, program)
        if not sco.pairs <= sco_replay.pairs:
            _fail("view-record", "a certifying replay lost a strong causal ordering")
        for view in views.views:
            pos = candidate[view.process].positions
            if any(pos[a] > pos[b] for a, b in kept[view.process]):
                _fail(
                    "view-record",
                    f"a certifying replay reversed an indirectly enforced pair "
                    f"of process {view.process}",
                )
        if candidate.sort_key() != views.sort_key():
            _fail("view-record", "offline record admits a differing replay")
    if seen != 1:
        _fail("view-record", f"expected exactly one certifying replay, saw {seen}")
    stats.certifying_seen += seen

    # necessity of every edge
    for i, edge in record.all_edges():
        verdict = goodness.verdict(
            record.drop(i, edge), "views", STRONG_CAUSAL, max_ops=max_ops
        )
        if verdict.good:
            _fail("view-record", f"record without {edge} (process {i}) is still good")
        pos = verdict.counterexample[i].positions
        a, b = edge
        if pos[a] < pos[b]:
            _fail(
                "view-record",
                f"counterexample for dropped edge {edge} does not flip it",
            )
        witness = oracle.view_witness(views, execution, record, i, edge)
        if witness.sort_key() == views.sort_key():
            _fail("view-record", "necessity witness equals the original views")
        stats.view_edges_checked += 1
    stats.stages.append("view-record")
    return record, sco


def _online_record_stage(execution, views, goodness, offline, stats, max_ops):
    program = execution.program
    online = online_record_from_views(views, execution)
    po = program.po_pairs
    for view in views.views:
        i = view.process
        sco_i = sco_from_others(views, program, i).pairs
        expected = frozenset(
            e for e in view.reduction_pairs() if e not in po and e not in sco_i
        )
        if online.edges(i) != expected:
            _fail(
                "online-record",
                f"online record of process {i} is {sorted(online.edges(i))}, "
                f"expected {sorted(expected)}",
            )
        if not offline.edges(i) <= online.edges(i):
            _fail("online-record", f"online record of process {i} misses offline edges")
        extra = online.edges(i) - offline.edges(i)
        covered = indirectly_enforced(views, program, i).pairs
        if not extra <= covered:
            _fail(
                "online-record",
                f"online-only edges of process {i} are not all indirectly enforced",
            )
    verdict = goodness.verdict(online, "views", STRONG_CAUSAL, max_ops=max_ops)
    if not verdict.good:
        _fail("online-record", "online record is not good")
    stats.stages.append("online-record")


def _race_record_stage(analysis, goodness, stats, max_ops):
    program = analysis.program
    record = analysis.record()
    verdict = goodness.verdict(record, "dro", STRONG_CAUSAL, max_ops=max_ops)
    if not verdict.good:
        dros = {
            i: sorted(data_race_order(verdict.counterexample[i], program).pairs)
            for i in program.processes
        }
        _fail("race-record", f"race record admits a race-differing replay: {dros}")
    if not verdict.original_certifies:
        _fail("race-record", "original views do not certify their own record")

    for i, edge in record.all_edges():
        verdict = goodness.verdict(
            record.drop(i, edge), "dro", STRONG_CAUSAL, max_ops=max_ops
        )
        if verdict.good:
            _fail("race-record", f"record without {edge} (process {i}) is still good")
        witness = oracle.race_witness(analysis, i, edge)
        flipped = data_race_order(witness[i], program).pairs
        a, b = edge
        if (b, a) not in flipped:
            _fail("race-record", f"witness for {edge} does not reverse the race")
        stats.race_edges_checked += 1
    stats.stages.append("race-record")


def _observation_stage(execution, views, analysis, sco, stats):
    program = execution.program
    swo = analysis.strong_write_order()

    if not swo.relation.pairs <= sco.pairs:
        _fail("observations", "strong write order escapes strong causal order")
    for pair, level in swo.level:
        if level < 1:
            _fail("observations", f"edge {pair} has level {level}")

    writes = program.writes
    for view in views.views:
        i = view.process
        obligation = analysis.obligation(i)
        if not swo.relation.pairs <= obligation.pairs:
            _fail("observations", f"obligation graph of {i} misses strong write order")
        # membership equivalence for pairs ending at this process's writes
        for a in writes:
            for b in writes:
                if a == b or program.proc_of(b) != i:
                    continue
                in_obligation = (a, b) in obligation.pairs
                in_swo = (a, b) in swo.relation.pairs
                if in_obligation != in_swo:
                    _fail(
                        "observations",
                        f"obligation/strong-write-order disagree on ({a}, {b})",
                    )

    # cascade levels are monotone and stay inside strong-write-order reach
    swo_reach = transitive_closure(swo.relation)
    for view in views.views:
        i = view.process
        for o1, o2 in sorted(analysis.dro(i).pairs):
            if program.ops[o2].kind != WRITE:
                continue
            cascade = analysis.flip_cascade(i, o1, o2)
            for earlier, later in zip(cascade.levels, cascade.levels[1:]):
                if not earlier <= later:
                    _fail("observations", "cascade levels are not monotone")
            if program.ops[o1].kind == WRITE:
                for w3, w4 in cascade.union:
                    if o1 != w4 and (o1, w4) not in swo_reach.pairs:
                        _fail(
                            "observations",
                            f"cascade pair ({w3}, {w4}) not strong-write-order "
                            f"reachable from {o1}",
                        )
            if cascade.levels and cascade.levels[0] <= swo.relation.pairs:
                if (o1, o2) in analysis.indirectly_enforced(i):
                    _fail(
                        "observations",
                        f"pair ({o1}, {o2}) marked redundant despite a "
                        f"forced-order cascade",
                    )

    # completion smoke: extending program order alone must succeed
    partials = {
        i: transitive_closure(
            Relation(
                program.universe_of(i),
                program.process_index(i).po_pairs,
            )
        )
        for i in program.processes
    }
    completed = oracle.extend_to_views(partials, program)
    derived = derive_writes_to(completed, program)
    if check_strong_causal(completed, derived) is not None:
        _fail("observations", "completion of program order is not strongly causal")
    stats.stages.append("observations")
