"""The memoised view-set descent against the unmemoised one.

`consistency.iter_view_sets` searches each process's extensions once per
distinct (process, forced rows, SCO summary) and replays the stored list
at every later node with the same key.  The reference here is the descent as
it ran before the memo: one `iter_extensions` search at every node, under
the full SCO veto list built from every fixed order, and each causal
contribution tested against each fixed order in turn.  Both must yield the
same leaves, in the same order, the memoised one with no more placements.
A leaf is compared by its views: the order rows are a function of them.
"""

import random

import pytest

from causalrnr import consistency, oracle
from causalrnr.consistency import (
    CAUSAL,
    STRONG_CAUSAL,
    explanation_base,
    iter_view_sets,
    sco_rows,
)
from causalrnr.errors import BudgetExceeded
from causalrnr.generator import GenParams, gen_strong_causal
from causalrnr.model import View, ViewSet, sequence_rows
from causalrnr.race_record import minimal_race_record
from causalrnr.records import Record
from causalrnr.search import NodeBudget, iter_extensions, predecessors
from causalrnr.view_record import minimal_view_record

from conftest import resourced, small_generated
from test_explanation_fixpoint import unsaturated_base

MODELS = (STRONG_CAUSAL, CAUSAL)
FIXTURES = small_generated()
# (seed, execution, views) of 7-8 operations, with re-sourced copies that
# the unsaturated descent settles as unexplainable only after placements
BACKTRACKING = [
    (seed, *gen_strong_causal(GenParams(seed, 3, 3, 1, 0.6))) for seed in (35, 47, 52)
]


def sco_vetoes(program, process, orders):
    """SCO as vetoes on the view of `process`, from the fixed views' order
    rows: an own write b is vetoed while any write that some fixed view
    orders after b is placed."""
    vetoes = [()] * len(program.all_ops)
    own = program.process_index(process).own_writes_mask
    for b in program.write_positions:
        if own >> b & 1:
            later = 0
            for order in orders:
                later |= order[b]
            later &= program.writes_mask
            if later:
                vetoes[b] = ((later, 0),)
    return vetoes


def respects(order, contribution):
    return not any(c & ~o for c, o in zip(contribution, order))


def reference_view_sets(program, model, base, budget, *, reads_given, vetoes=None):
    """`iter_view_sets` without the memo: every node runs its own search."""
    procs = tuple(sorted(program.processes))
    if not procs:
        yield ViewSet.of([])
        return
    ids = program.all_ops
    strong = model == STRONG_CAUSAL
    contributes = strong or not reads_given

    def extend(fixed, orders, forced):
        i = procs[len(fixed)]
        preds = predecessors(forced, onto=base[i])
        if preds is None:
            return
        placing = vetoes[i] if vetoes is not None else None
        if strong and orders:
            sco = sco_vetoes(program, i, orders)
            placing = sco if placing is None else [v + s for v, s in zip(placing, sco)]
        last = len(fixed) == len(procs) - 1
        positions = program.process_index(i).positions
        for seq in iter_extensions(positions, preds, placing, budget):
            view = View(i, tuple(ids[k] for k in seq))
            if contributes and not strong:
                contribution = consistency._wo_contribution(program, view)
                if not all(respects(o, contribution) for o in orders):
                    continue
            if last:
                yield ViewSet.of(fixed + [view])
            elif not contributes:
                yield from extend(fixed + [view], orders, forced)
            else:
                order = sequence_rows(seq, len(ids))
                if strong:
                    contribution = sco_rows(program, [(i, order)])
                yield from extend(
                    fixed + [view],
                    orders + [order],
                    [f | c for f, c in zip(forced, contribution)],
                )

    yield from extend([], [], [0] * len(ids))


def _views(leaf):
    return [(v.process, v.sequence) for v in leaf.views]


def _leaves(descent, *args, **kwargs):
    return [_views(leaf) for leaf in descent(*args, **kwargs)]


def _records(execution, views):
    """The empty, minimal view and minimal race records, and the minimal
    view record with one edge dropped."""
    program = execution.program
    view = minimal_view_record(views, execution)
    records = [
        Record.of({p: frozenset() for p in program.processes}),
        view,
        minimal_race_record(views, execution),
    ]
    if view.size():
        records.append(view.drop(*next(view.all_edges())))
    return records


def _queries(model):
    """(program, base, reads_given, vetoes) of both kinds of query: the
    oracle's over each record's bases, and `find_explanation`'s over the
    saturated and the unsaturated bases of each execution and of three
    re-sourced copies."""
    out = []
    for execution, views in FIXTURES:
        program = execution.program
        for record in _records(execution, views):
            base = oracle._base_rows(program, record)
            if base is not None:
                out.append((program, base, False, None))
    numbered = [(k, e) for k, (e, _) in enumerate(FIXTURES)]
    numbered += [(seed, e) for seed, e, _ in BACKTRACKING]
    for seed, execution in numbered:
        copies = [resourced(execution, random.Random(3 * seed + k)) for k in range(3)]
        for given in [execution] + copies:
            if given is None:
                continue
            for bases in (explanation_base, unsaturated_base):
                base, vetoes = bases(given, model)
                if base is not None:
                    out.append((execution.program, base, True, vetoes))
    return out


@pytest.mark.parametrize("model", MODELS)
def test_same_leaves_in_the_same_order_with_no_more_placements(model):
    fewer = 0
    seen = set()
    for program, base, reads_given, vetoes in _queries(model):
        memo, plain = NodeBudget(None), NodeBudget(None)
        found = _leaves(
            iter_view_sets, program, model, base, memo, reads_given=reads_given, vetoes=vetoes
        )
        expected = _leaves(
            reference_view_sets, program, model, base, plain,
            reads_given=reads_given, vetoes=vetoes,
        )
        assert found == expected
        assert memo.explored <= plain.explored
        fewer += memo.explored < plain.explored
        seen.add((reads_given, bool(found)))
    assert fewer
    assert seen == {(False, True), (True, True), (True, False)}


def test_cached_contributions_are_filtered_at_every_node(monkeypatch):
    """Under the causal model with the reads not given, a stored view's WO
    contribution is checked again under other fixed views, and rejected
    under some of them.  With two processes, the intersection that each
    check of the second process's views tests against is the one fixed
    view's order, so two intersections checked against one contribution
    are two nodes."""
    calls = []
    inside = consistency._inside

    def recording(contribution, meet):
        result = inside(contribution, meet)
        calls.append((contribution, meet, result))
        return result

    monkeypatch.setattr(consistency, "_inside", recording)
    execution, _ = gen_strong_causal(GenParams(0, 2, 3, 2, 0.5))
    program = execution.program
    assert len(program.processes) == 2
    empty = Record.of({p: frozenset() for p in program.processes})
    list(oracle.enumerate_certifying(program, empty, CAUSAL))
    fixed: dict[int, set] = {}
    rejected: dict[int, bool] = {}
    for contribution, meet, result in calls:
        fixed.setdefault(id(contribution), set()).add(meet)
        rejected[id(contribution)] = rejected.get(id(contribution), False) or not result
    reused = [key for key, meets in fixed.items() if len(meets) > 1]
    assert reused
    assert any(rejected[key] for key in reused)


def _empty_query():
    """The first fixture with three processes and five operations, as a
    causal empty-record query: its program, bases and placements."""
    execution = next(
        e for e, _ in FIXTURES
        if len(e.program.processes) == 3 and len(e.program.all_ops) == 5
    )
    program = execution.program
    base = oracle._base_rows(program, Record.of({p: frozenset() for p in program.processes}))
    budget = NodeBudget(None)
    for _ in iter_view_sets(program, CAUSAL, base, budget, reads_given=False):
        pass
    return program, base, budget.explored


def test_exhausted_budget_then_a_larger_one_gives_the_reference():
    program, base, placements = _empty_query()
    expected = _leaves(
        reference_view_sets, program, CAUSAL, base, NodeBudget(None), reads_given=False
    )
    for limit in (1, placements // 3, placements // 2, placements - 1):
        budget = NodeBudget(limit)
        leaves = iter_view_sets(program, CAUSAL, base, budget, reads_given=False)
        prefix = []
        with pytest.raises(BudgetExceeded):
            for leaf in leaves:
                prefix.append(_views(leaf))
        assert prefix == expected[: len(prefix)]
        again = _leaves(
            iter_view_sets, program, CAUSAL, base, NodeBudget(limit * 10 + placements),
            reads_given=False,
        )
        assert again == expected


def test_an_early_exit_leaves_later_queries_unaffected():
    checked = 0
    for execution, views in FIXTURES[:12]:
        program = execution.program
        empty = Record.of({p: frozenset() for p in program.processes})
        verdict = oracle.is_good_view_record(views, program, empty, CAUSAL)
        if verdict.good:
            continue
        checked += 1
        base = oracle._base_rows(program, empty)
        expected = _leaves(
            reference_view_sets, program, CAUSAL, base, NodeBudget(None), reads_given=False
        )
        # a descent abandoned after its first leaf, then a fresh one
        first = iter_view_sets(program, CAUSAL, base, NodeBudget(None), reads_given=False)
        next(first)
        first.close()
        found = _leaves(
            iter_view_sets, program, CAUSAL, base, NodeBudget(None), reads_given=False
        )
        assert found == expected
        assert [c.sort_key() for c in oracle.enumerate_certifying(program, empty, CAUSAL)] == [
            tuple(seq for _, seq in views) for views in expected
        ]
    assert checked
