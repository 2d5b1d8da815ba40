"""The existential searches against their hook-based references.

`reference_find_explanation` and `reference_check_cache` are the searches
as they were written over id-pair `Relation`s and a string-id engine
that asks a hook, for each placement, whether a read gets the right
source; SCO is checked only once a whole view is placed.  The package's
searches place on bitmask rows with read validity and SCO as
predecessors and vetoes, so they must return the same results while
making no more placements.  `find_explanation` does not check the view
set it returns, which explains the execution by construction; the
references do, and the test checks it again.
"""

import random

import pytest

from causalrnr import consistency
from causalrnr.consistency import (
    CAUSAL,
    STRONG_CAUSAL,
    check_causal,
    check_strong_causal,
    sco_rows,
)
from causalrnr.errors import BudgetExceeded
from causalrnr.generator import GenParams, gen_strong_causal
from causalrnr.model import (
    View,
    ViewSet,
    Violation,
    WRITE,
    order_rows,
    write_read_write_order,
)
from causalrnr.relations import Relation, has_cycle, union_closed
from causalrnr.search import NodeBudget
from conftest import resourced


def _iter_extensions(items, preds, place_hook, budget):
    n = len(items)
    placed = []
    placed_set = set()

    def descend():
        if len(placed) == n:
            yield tuple(placed)
            return
        for o in items:
            if o in placed_set or not preds[o] <= placed_set:
                continue
            if place_hook is not None and not place_hook(o, placed):
                continue
            budget.spend()
            placed.append(o)
            placed_set.add(o)
            yield from descend()
            placed.pop()
            placed_set.remove(o)

    yield from descend()


def _preds_from_pairs(items, pairs):
    preds = {o: set() for o in items}
    carrier = set(items)
    for a, b in pairs:
        if a in carrier and b in carrier:
            preds[b].add(a)
    return {o: frozenset(s) for o, s in preds.items()}


def _read_validity_hook(program, writes_to, process):
    def hook(o, placed):
        op = program.ops[o]
        if op.kind == WRITE or op.process != process:
            return True
        actual = None
        for q in reversed(placed):
            other = program.ops[q]
            if other.kind == WRITE and other.variable == op.variable:
                actual = q
                break
        return actual == writes_to.get(o)

    return hook


def _own_write_orderings(program, view):
    return program.pairs_of(sco_rows(program, [(view.process, order_rows(view, program))]))


def _respected_by_all(fixed, pairs):
    for view in fixed:
        pos = view.positions
        if any(pos[a] > pos[b] for a, b in pairs):
            return False
    return True


def reference_find_explanation(execution, model, budget):
    program = execution.program
    procs = tuple(sorted(program.processes))
    wo = write_read_write_order(execution) if model == CAUSAL else None

    def descend(idx, fixed, sco_pairs):
        if idx == len(procs):
            candidate = ViewSet.of(fixed)
            check = check_causal if model == CAUSAL else check_strong_causal
            return candidate if check(candidate, execution) is None else None
        i = procs[idx]
        universe = program.universe_of(i)
        base = wo.pairs if model == CAUSAL else sco_pairs
        required = union_closed(
            Relation(program.writes, base),
            Relation(universe, program.process_index(i).po_pairs),
        )
        if has_cycle(required):
            return None
        preds = _preds_from_pairs(universe, required.pairs)
        hook = _read_validity_hook(program, execution.writes_to, i)
        for seq in _iter_extensions(universe, preds, hook, budget):
            view = View(i, seq)
            if model == STRONG_CAUSAL:
                new_sco = _own_write_orderings(program, view)
                if not _respected_by_all(fixed, new_sco):
                    continue
                found = descend(idx + 1, fixed + [view], sco_pairs | new_sco)
            else:
                found = descend(idx + 1, fixed + [view], sco_pairs)
            if found is not None:
                return found
        return None

    return descend(0, [], frozenset())


def reference_check_cache(execution, budget):
    program = execution.program
    for x in program.variables:
        ops_x = tuple(o for o in program.all_ops if program.var_of(o) == x)
        preds = _preds_from_pairs(ops_x, program.po_restricted(ops_x))

        def hook(o, placed):
            if program.ops[o].kind == WRITE:
                return True
            actual = None
            for q in reversed(placed):
                if program.is_write(q):
                    actual = q
                    break
            return actual == execution.writes_to.get(o)

        if next(_iter_extensions(ops_x, preds, hook, budget), None) is None:
            return Violation(
                kind="cache",
                variable=x,
                message=(
                    f"no total order of the operations on {x} respects program "
                    f"order and the recorded read values"
                ),
            )
    return None


GRIDS = (
    dict(processes=3, ops_per_process=2, variables=1, write_ratio=0.6),
    dict(processes=2, ops_per_process=4, variables=2, write_ratio=0.5),
    dict(processes=3, ops_per_process=3, variables=1, write_ratio=0.5),
    dict(processes=3, ops_per_process=3, variables=2, write_ratio=0.4),
    dict(processes=4, ops_per_process=2, variables=2, write_ratio=0.6),
)


def _executions(count=60, max_ops=8):
    out = []
    seed = 0
    while len(out) < count:
        execution, _ = gen_strong_causal(GenParams(seed=seed, **GRIDS[seed % len(GRIDS)]))
        seed += 1
        if len(execution.program.all_ops) > max_ops:
            continue
        out.append((f"s{seed - 1}", execution))
        copy = resourced(execution, random.Random(seed))
        if copy is not None:
            out.append((f"s{seed - 1}-resourced", copy))
    return out


EXECUTIONS = _executions()


@pytest.fixture
def budgets(monkeypatch):
    """The `NodeBudget`s `consistency` creates while the test runs."""
    made = []

    class Recording(NodeBudget):
        def __init__(self, limit):
            super().__init__(limit)
            made.append(self)

    monkeypatch.setattr(consistency, "NodeBudget", Recording)
    return made


@pytest.mark.parametrize("model", [STRONG_CAUSAL, CAUSAL])
@pytest.mark.parametrize("k", range(len(EXECUTIONS)))
def test_find_explanation_matches_reference(k, model, budgets):
    name, execution = EXECUTIONS[k]
    assert len(execution.program.all_ops) <= 8
    reference_budget = NodeBudget(None)
    expected = reference_find_explanation(execution, model, reference_budget)
    found = consistency.find_explanation(execution, model, max_ops=8, node_budget=None)
    assert found == expected, name
    assert sum(b.explored for b in budgets) <= reference_budget.explored, name
    # the search does not re-check the explanation it returns
    check = check_causal if model == CAUSAL else check_strong_causal
    assert found is None or check(found, execution) is None, name


@pytest.mark.parametrize("k", range(len(EXECUTIONS)))
def test_check_cache_matches_reference(k, budgets):
    name, execution = EXECUTIONS[k]
    reference_budget = NodeBudget(None)
    expected = reference_check_cache(execution, reference_budget)
    assert consistency.check_cache(execution, node_budget=None) == expected, name
    assert sum(b.explored for b in budgets) <= reference_budget.explored, name


def test_corpus_covers_both_outcomes():
    found = [
        reference_find_explanation(execution, STRONG_CAUSAL, NodeBudget(None))
        for _, execution in EXECUTIONS
    ]
    cache = [reference_check_cache(execution, NodeBudget(None)) for _, execution in EXECUTIONS]
    assert any(f is None for f in found) and any(f is not None for f in found)
    assert any(c is None for c in cache) and any(c is not None for c in cache)


def test_budget_is_spent_per_placement():
    _, execution = EXECUTIONS[0]
    with pytest.raises(BudgetExceeded):
        consistency.find_explanation(execution, STRONG_CAUSAL, max_ops=8, node_budget=1)
