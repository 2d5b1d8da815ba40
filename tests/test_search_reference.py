"""The placement engine against brute-force permutations.

The reference lists `itertools.permutations` of the positions (which come
out in lexicographic order) and keeps those in which every step places a
position after its predecessor mask and against none of its vetoes.  The
engine must yield exactly these sequences, in the same order, and spend
one budget unit per placement: per nonempty prefix all of whose steps
pass the same test.

The incremental closure both searches feed it, `kernels.close_onto`,
must equal Warshall's closure of the union, and `predecessors` over it
must return None exactly when that closure is cyclic.
"""

import itertools
import random

import pytest

from causalrnr import kernels
from causalrnr.errors import BudgetExceeded
from causalrnr.search import NodeBudget, iter_extensions, predecessors


def _allowed(k, placed, preds, vetoes):
    if preds[k] & ~placed:
        return False
    return not any(placed & need and not placed & unless for need, unless in vetoes[k])


def _valid_prefix(seq, preds, vetoes):
    placed = 0
    for k in seq:
        if not _allowed(k, placed, preds, vetoes):
            return False
        placed |= 1 << k
    return True


def reference_extensions(positions, preds, vetoes):
    return [
        seq for seq in itertools.permutations(positions)
        if _valid_prefix(seq, preds, vetoes)
    ]


def reference_placements(positions, preds, vetoes):
    return sum(
        _valid_prefix(seq, preds, vetoes)
        for t in range(1, len(positions) + 1)
        for seq in itertools.permutations(positions, t)
    )


def _random_instance(rng):
    size = rng.randrange(0, 8)
    n = rng.randrange(0, size + 1)
    positions = tuple(sorted(rng.sample(range(size), n)))
    mask = sum(1 << k for k in positions)
    preds = [0] * size
    vetoes = [()] * size
    order = list(positions)
    rng.shuffle(order)
    for t, k in enumerate(order):
        # predecessors drawn from earlier positions of a random order stay
        # acyclic; a rare back edge makes some instances unsatisfiable
        for j in order[:t]:
            if rng.random() < 0.25:
                preds[k] |= 1 << j
        if t and rng.random() < 0.05:
            preds[order[0]] |= 1 << k
    for k in positions:
        for _ in range(rng.choice((0, 0, 1, 2))):
            need = rng.getrandbits(size) & mask & ~(1 << k)
            unless = rng.getrandbits(size) & mask & ~(1 << k) if rng.random() < 0.6 else 0
            vetoes[k] += ((need, unless),)
    return positions, preds, vetoes


INSTANCES = [_random_instance(random.Random(seed)) for seed in range(300)]


@pytest.mark.parametrize("k", range(len(INSTANCES)))
def test_engine_matches_filtered_permutations(k):
    positions, preds, vetoes = INSTANCES[k]
    budget = NodeBudget(None)
    found = list(iter_extensions(positions, preds, vetoes, budget))
    assert found == reference_extensions(positions, preds, vetoes)
    assert budget.explored == reference_placements(positions, preds, vetoes)


def test_instances_cover_empty_and_unsatisfiable_orders():
    outcomes = [reference_extensions(*instance) for instance in INSTANCES]
    assert any(instance[0] == () for instance in INSTANCES)
    assert any(found == [] for found in outcomes)
    assert any(len(found) > 1 for found in outcomes)


def test_empty_order_has_one_extension():
    budget = NodeBudget(None)
    assert list(iter_extensions((), [], None, budget)) == [()]
    assert budget.explored == 0


def test_order_without_extension():
    # 1 before 2 and 2 before 1
    preds = [0, 1 << 2, 1 << 1]
    assert list(iter_extensions((0, 1, 2), preds)) == []


def test_no_constraints_gives_all_permutations_in_order():
    positions = (1, 3, 4)
    found = list(iter_extensions(positions, [0] * 5))
    assert found == list(itertools.permutations(positions))


def test_budget_exceeded_counts_the_failing_placement():
    budget = NodeBudget(4)
    with pytest.raises(BudgetExceeded) as info:
        list(iter_extensions((0, 1, 2), [0] * 3, None, budget))
    assert info.value.explored == 5


class TestPredecessors:
    def test_closed_columns(self):
        # 0 -> 1 -> 2
        assert predecessors([0b010, 0b100, 0]) == [0, 0b001, 0b011]

    def test_cycle_gives_none(self):
        assert predecessors([0b010, 0b001, 0]) is None

    def test_no_edges(self):
        assert predecessors([0, 0]) == [0, 0]


def _random_closure_instance(rng):
    """Closed rows of a random order with some elements left out (empty
    rows, as outside a process's universe) and random extra edges among
    the rest, some of which close a cycle; a rare back edge makes the
    closed rows themselves cyclic."""
    size = rng.randrange(0, 10)
    members = [k for k in range(size) if rng.random() < 0.8]
    rng.shuffle(members)
    rows = [0] * size
    for t, k in enumerate(members):
        for j in members[t + 1:]:
            if rng.random() < 0.2:
                rows[k] |= 1 << j
        if t and rng.random() < 0.05:
            rows[k] |= 1 << members[0]
    extra = [0] * size
    for k in members:
        for j in members:
            if j != k and rng.random() < 0.1:
                extra[k] |= 1 << j
    return kernels.closure_rows(rows), extra


CLOSURES = [_random_closure_instance(random.Random(seed)) for seed in range(300)]


@pytest.mark.parametrize("k", range(len(CLOSURES)))
def test_close_onto_matches_closure_of_the_union(k):
    closed, extra = CLOSURES[k]
    union = [c | e for c, e in zip(closed, extra)]
    assert kernels.close_onto(closed, extra) == kernels.closure_rows(union)
    assert predecessors(extra, onto=closed) == predecessors(union)


def test_closure_instances_cover_both_outcomes():
    outcomes = [predecessors(extra, onto=closed) for closed, extra in CLOSURES]
    assert any(preds is None for preds in outcomes)
    assert any(any(row >> j & 1 for j, row in enumerate(closed)) for closed, _ in CLOSURES)
    assert any(
        preds is not None and any(extra) for preds, (_, extra) in zip(outcomes, CLOSURES)
    )
