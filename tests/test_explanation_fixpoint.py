"""`find_explanation`'s fixpoint walk against the unsaturated descent.

`find_explanation` saturates each process's base (`explanation_base`)
and takes the first leaf of the fixpoint walk over it.  The reference
here is the search as it ran before both: the view-set descent with the
reads given (`conftest.reference_view_sets`) over program order, read
validity and, under the causal model, WO, closed per process, with read
validity's vetoes.  Every edge the fixpoint derives holds in every
explanation, so both must return the same view set, the walk with no
more placements, and a cyclic fixpoint must settle the query with none.
"""

import random

import pytest

from causalrnr import consistency, kernels
from causalrnr.consistency import (
    CAUSAL,
    STRONG_CAUSAL,
    check_causal,
    check_strong_causal,
    explanation_base,
    find_explanation,
    read_validity,
)
from causalrnr.generator import GenParams, gen_strong_causal
from causalrnr.model import order_rows, write_read_write_rows
from causalrnr.search import NodeBudget

from conftest import reference_view_sets, resourced

MODELS = (STRONG_CAUSAL, CAUSAL)


def read_vetoes(program, writes_to, reads):
    """Read validity of the reads at positions `reads` as placement
    vetoes: every other write to a read's variable is vetoed while the
    read's source is placed and the read is not."""
    ids = program.all_ops
    index = program.index
    vetoes = [()] * len(ids)
    for r in reads:
        source = writes_to.get(ids[r])
        if source is None:
            continue
        s = index[source]
        competing = program.variable_masks[r] & program.writes_mask & ~(1 << s)
        for w in range(len(ids)):
            if competing >> w & 1:
                vetoes[w] += ((1 << s, 1 << r),)
    return vetoes


def unsaturated_base(execution, model):
    """`consistency.explanation_base` before its fixpoint: program order,
    read validity and, under the causal model, WO, closed per process,
    with read validity's vetoes."""
    program = execution.program
    index = program.index
    if model == CAUSAL:
        wo = write_read_write_rows(program, execution.writes_to.items())
    else:
        wo = [0] * len(program.all_ops)
    base, vetoes = {}, {}
    for i in sorted(program.processes):
        reads = [index[o] for o in program.own(i) if not program.is_write(o)]
        rows, _ = read_validity(program, execution.writes_to, reads)
        vetoes[i] = read_vetoes(program, execution.writes_to, reads)
        po = program.process_index(i).po_rows
        base[i] = kernels.closure_rows([p | r | w for p, r, w in zip(po, rows, wo)])
    return base, vetoes


def unsaturated_explanation(execution, model, budget):
    """The least explanation as the view-set descent found it before the
    fixpoint walk: the first view set of `reference_view_sets` with the
    reads given, over the unsaturated bases and read validity's vetoes."""
    base, vetoes = unsaturated_base(execution, model)
    leaves = reference_view_sets(
        execution.program, model, base, budget, reads_given=True, vetoes=vetoes
    )
    return next(leaves, None)


GRIDS = (
    dict(processes=3, ops_per_process=3, variables=1, write_ratio=0.6),
    dict(processes=3, ops_per_process=3, variables=2, write_ratio=0.5),
    dict(processes=2, ops_per_process=4, variables=2, write_ratio=0.5),
    dict(processes=3, ops_per_process=4, variables=2, write_ratio=0.6),
    dict(processes=4, ops_per_process=3, variables=2, write_ratio=0.5),
    dict(processes=4, ops_per_process=2, variables=1, write_ratio=0.5),
)


def _executions(count=500):
    """Generated executions of 6-11 operations, each followed by up to two
    copies with one read re-sourced, which may have no explanation."""
    out = []
    seed = 0
    while len(out) < count:
        execution, _ = gen_strong_causal(GenParams(seed=seed, **GRIDS[seed % len(GRIDS)]))
        seed += 1
        if not 6 <= len(execution.program.all_ops) <= 11:
            continue
        out.append(execution)
        rng = random.Random(seed)
        for _ in range(2):
            copy = resourced(execution, rng)
            if copy is not None:
                out.append(copy)
    return out


EXECUTIONS = _executions()
CHUNKS = 10


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


@pytest.mark.parametrize("model", MODELS)
@pytest.mark.parametrize("chunk", range(CHUNKS))
def test_matches_the_unsaturated_search(chunk, model, budgets):
    for execution in EXECUTIONS[chunk::CHUNKS]:
        reference = NodeBudget(None)
        expected = unsaturated_explanation(execution, model, reference)
        budgets.clear()
        found = find_explanation(execution, model, max_ops=11, node_budget=None)
        assert found == expected, execution
        assert sum(b.explored for b in budgets) <= reference.explored, execution


@pytest.mark.parametrize("model", MODELS)
def test_both_outcomes_occur(model):
    assert len(EXECUTIONS) >= 500
    outcomes = {
        find_explanation(execution, model, max_ops=11) is None for execution in EXECUTIONS
    }
    assert outcomes == {True, False}


@pytest.mark.parametrize("model", MODELS)
def test_saturated_edges_hold_in_the_explanation(model):
    checked = 0
    for execution in EXECUTIONS:
        found = find_explanation(execution, model, max_ops=11)
        if found is None:
            continue
        program = execution.program
        base = explanation_base(execution, model)
        for i, rows in base.items():
            order = order_rows(found[i], program)
            assert not any(b & ~o for b, o in zip(rows, order)), (execution, i)
        checked += 1
    assert checked


@pytest.mark.parametrize("model", MODELS)
def test_cyclic_fixpoint_places_nothing(model, budgets):
    # `derived` counts the cycles that cost the unsaturated search placements
    derived = 0
    for execution in EXECUTIONS:
        base = explanation_base(execution, model)
        if base is not None:
            continue
        budgets.clear()
        assert find_explanation(execution, model, max_ops=11) is None
        assert sum(b.explored for b in budgets) == 0
        reference = NodeBudget(None)
        assert unsaturated_explanation(execution, model, reference) is None
        derived += reference.explored > 0
    assert derived


@pytest.mark.parametrize("model", MODELS)
@pytest.mark.parametrize("seed, size", [(38, 13), (110, 15)])
def test_large_executions_are_explained_within_a_small_budget(seed, size, model):
    params = GenParams(seed=seed, processes=5, ops_per_process=3, variables=2, write_ratio=0.5)
    execution, _ = gen_strong_causal(params)
    assert len(execution.program.all_ops) == size
    found = find_explanation(execution, model, max_ops=15, node_budget=1_000)
    assert found is not None
    check = check_strong_causal if model == STRONG_CAUSAL else check_causal
    assert check(found, execution) is None
