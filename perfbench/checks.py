"""Output checks for the benchmark workloads.

Each check states a theorem or property of the method and raises
`CheckFailed` when a result breaks it.  None of them compares against a
stored copy of the program's output; the enumerate counts are compared
with `reference.py`, which is computed apart from the program.
"""

from __future__ import annotations

from causalrnr import oracle
from causalrnr.battery import BatteryFailure
from causalrnr.model import Execution

import reference


class CheckFailed(AssertionError):
    pass


def _require(condition, message):
    if not condition:
        raise CheckFailed(message)


def _views_of(views):
    return {v.process: v.sequence for v in views.views}


def dro_pairs(view, program):
    """Per-variable orders of a view, computed here: pairs of same-variable
    operations in view order."""
    seq = view.sequence
    return {(a, b) for i, a in enumerate(seq) for b in seq[i + 1:]
            if program.var_of(a) == program.var_of(b)}


def explains(views, execution, model) -> str | None:
    """The benchmark's own checker: None when the views explain the execution."""
    shape = reference.Shape(execution.program)
    writes_to = {r: execution.writes_to.get(r) for r in shape.kind if shape.kind[r] == "r"}
    return reference.check_views(shape, _views_of(views), writes_to, model)


def extends(views, record) -> bool:
    """Every record edge is ordered the same way by its process's view."""
    for process, edges in record.per_process:
        pos = views[process].positions
        if any(pos[a] > pos[b] for a, b in edges):
            return False
    return True


def differs(candidate, views, program, kind, process=None) -> bool:
    if kind == "views":
        return candidate.sort_key() != views.sort_key()
    procs = [process] if process is not None else sorted(program.processes)
    return any(dro_pairs(candidate[i], program) != dro_pairs(views[i], program) for i in procs)


# -- fuzz -------------------------------------------------------------------

def battery(result):
    _require(not isinstance(result, BatteryFailure), f"battery failed: {result}")


# -- verify -------------------------------------------------------------------

def minimal_good(verdict, name):
    _require(verdict.good, f"{name}: the minimal record is not good")
    _require(verdict.original_certifies, f"{name}: the original views do not certify it")


def dropped_edge(verdict, views, program, reduced, kind, process, edge, name):
    _require(not verdict.good, f"{name}: the record without {edge} is still good")
    cx = verdict.counterexample
    _require(cx is not None, f"{name}: no counterexample for {edge}")
    _require(oracle.certifies(cx, program, reduced, "strong_causal"),
             f"{name}: the counterexample does not certify the reduced record")
    _require(differs(cx, views, program, kind), f"{name}: the counterexample equals the original")
    if kind == "views":
        pos = cx[process].positions
        _require(pos[edge[0]] > pos[edge[1]], f"{name}: the counterexample keeps {edge}")


def empty_record(verdict, minimal, name):
    # goodness is monotone in the record, so the empty record is good
    # exactly when the minimal record is empty
    _require(verdict.good == (minimal.size() == 0),
             f"{name}: empty record good={verdict.good} but minimal size {minimal.size()}")


def online_good(verdict, name):
    _require(verdict.good, f"{name}: the online record is not good")


def explanation(found, execution, model, generated, name):
    """`generated` is the generator's views for an original execution,
    None for a perturbed copy."""
    if generated is not None:
        _require(found is not None, f"{name}: no {model} explanation of an original execution")
    if found is None:
        return
    bad = explains(found, execution, model)
    _require(bad is None, f"{name}: the {model} explanation fails the checker: {bad}")
    if generated is not None:
        _require(found.sort_key() <= generated.sort_key(),
                 f"{name}: the explanation is not lexicographically least")


def strong_implies_causal(strong, causal, name):
    _require(strong is None or causal is not None,
             f"{name}: a strong causal explanation exists but no causal one")


# -- enumerate ----------------------------------------------------------------

def certifying_sets(found, views, expected, name):
    _require(len(found) == expected,
             f"{name}: {len(found)} certifying sets, reference count {expected}")
    keys = [vs.sort_key() for vs in found]
    _require(all(a < b for a, b in zip(keys, keys[1:])),
             f"{name}: certifying sets are not in strictly increasing order")
    _require(views.sort_key() in set(keys), f"{name}: the original views are missing")


def causal_at_least_strong(causal, strong, name):
    _require(causal >= strong, f"{name}: causal count {causal} below strong causal {strong}")


# -- record -------------------------------------------------------------------

def records(views, execution, offline, online, race, name):
    program = execution.program
    bad = explains(views, execution, "strong_causal")
    _require(bad is None, f"{name}: the fixture is not strongly causal: {bad}")
    for i in sorted(program.processes):
        _require(offline.edges(i) <= online.edges(i),
                 f"{name}: offline record of process {i} is not inside the online record")
        _require(race.edges(i) <= dro_pairs(views[i], program),
                 f"{name}: race record of process {i} leaves the data-race order")
    for label, record in (("offline", offline), ("online", online), ("race", race)):
        _require(extends(views, record), f"{name}: the original views break the {label} record")


def witness(found, views, execution, record, process, edge, kind, name):
    program = execution.program
    bad = explains(found, _derived(found, program), "strong_causal")
    _require(bad is None, f"{name}: witness for {edge} is not strongly causal: {bad}")
    _require(extends(found, record.drop(process, edge)),
             f"{name}: witness for {edge} breaks the reduced record")
    _require(differs(found, views, program, kind, process),
             f"{name}: witness for {edge} equals the original")


def _derived(views, program):
    shape = reference.Shape(program)
    writes_to = {}
    for p in shape.procs:
        writes_to.update(reference.sources(shape, p, views[p].sequence))
    return Execution(program, {r: w for r, w in writes_to.items() if w is not None})
