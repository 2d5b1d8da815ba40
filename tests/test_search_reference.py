"""The placement engine against brute-force permutations.

The brute force lists `itertools.permutations` of the positions (which
come out in lexicographic order) and keeps those in which every step
places a position after its predecessor mask and, for the veto engine
kept as a reference (`conftest.reference_extensions`), against none of
its vetoes.  `search.iter_extensions` places positions on closed
successor rows, here the closure of the masks' transpose; each engine
must yield exactly these sequences, in the same order, and spend one
budget unit per placement: per nonempty prefix all of whose steps pass
the same test.  On random closed acyclic rows, chains and antichains
included, the successor-row search must match the reference on the
predecessor masks that `conftest.predecessors` transposes them into,
sequence for sequence and placement for placement.

A veto `(need, 0)` on position k keeps k from following any position of
`need`, as the edges from k to `need` do: folded into the rows as those
edges, it must give the veto engine's sequences, in its order, with no
more placements.

The incremental closure the descent feeds the search, `kernels.close_onto`,
must equal Warshall's closure of the union, and the reference's
`predecessors` over it must return None exactly when that closure is
cyclic.
"""

import itertools
import math
import random

import pytest

from causalrnr import consistency, fixtures, kernels, oracle
from causalrnr.consistency import cyclic
from causalrnr.errors import BudgetExceeded
from causalrnr.records import Record
from causalrnr.search import NodeBudget, iter_extensions

from conftest import mask_positions, predecessors, reference_extensions


def _allowed(k, placed, preds, vetoes):
    if preds[k] & ~placed:
        return False
    if vetoes is None:
        return True
    return not any(placed & need and not placed & unless for need, unless in vetoes[k])


def _valid_prefix(seq, preds, vetoes):
    placed = 0
    for k in seq:
        if not _allowed(k, placed, preds, vetoes):
            return False
        placed |= 1 << k
    return True


def filtered_permutations(positions, preds, vetoes=None):
    return [
        seq for seq in itertools.permutations(positions)
        if _valid_prefix(seq, preds, vetoes)
    ]


def reference_placements(positions, preds, vetoes=None):
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


def _closed_successors(preds):
    """The closed successor rows of predecessor masks: the transpose,
    closed; a cyclic mask shows as a self bit."""
    rows = [0] * len(preds)
    for k, need in enumerate(preds):
        for j in mask_positions(need):
            rows[j] |= 1 << k
    return kernels.closure_rows(rows)


INSTANCES = [_random_instance(random.Random(seed)) for seed in range(300)]


@pytest.mark.parametrize("k", range(len(INSTANCES)))
def test_engine_matches_filtered_permutations(k):
    positions, preds, vetoes = INSTANCES[k]
    rows = _closed_successors(preds)
    if cyclic(rows):
        # no ordering, and the descent searches no cyclic closure
        assert filtered_permutations(positions, preds) == []
    else:
        budget = NodeBudget(None)
        found = list(iter_extensions(sum(1 << p for p in positions), rows, budget))
        assert found == filtered_permutations(positions, preds)
        assert budget.explored == reference_placements(positions, preds)
    budget = NodeBudget(None)
    found = list(reference_extensions(positions, preds, vetoes, budget))
    assert found == filtered_permutations(positions, preds, vetoes)
    assert budget.explored == reference_placements(positions, preds, vetoes)


def test_instances_cover_empty_and_unsatisfiable_orders():
    for vetoed in (False, True):
        outcomes = [
            filtered_permutations(positions, preds, vetoes if vetoed else None)
            for positions, preds, vetoes in INSTANCES
        ]
        assert any(found == [] for found in outcomes)
        assert any(len(found) > 1 for found in outcomes)
    assert any(instance[0] == () for instance in INSTANCES)


def _fold_instance(rng):
    """`_random_instance`'s predecessors (a few of them cyclic) and
    `(need, 0)` vetoes over its positions, with the successor rows of
    both, the vetoes folded in as edges."""
    positions, preds, _ = _random_instance(rng)
    mask = sum(1 << k for k in positions)
    vetoes = [()] * len(preds)
    rows = [0] * len(preds)
    for k in positions:
        for j in positions:
            if preds[k] >> j & 1:
                rows[j] |= 1 << k
        if rng.random() < 0.5:
            need = rng.getrandbits(len(preds)) & mask & ~(1 << k)
            vetoes[k] = ((need, 0),)
            rows[k] |= need
    return positions, preds, vetoes, rows


FOLDS = [_fold_instance(random.Random(seed)) for seed in range(300)]


@pytest.mark.parametrize("k", range(len(FOLDS)))
def test_vetoes_folded_as_edges_give_the_same_sequences(k):
    positions, preds, vetoes, rows = FOLDS[k]
    vetoed = NodeBudget(None)
    expected = list(reference_extensions(positions, preds, vetoes, vetoed))
    folded = kernels.closure_rows(rows)
    if cyclic(folded):
        # the edges close a cycle: no extension, and nothing to place
        assert expected == []
        return
    budget = NodeBudget(None)
    universe = sum(1 << p for p in positions)
    assert list(iter_extensions(universe, folded, budget)) == expected
    assert budget.explored <= vetoed.explored


def test_fold_instances_cover_cycles_and_pruned_placements():
    cycles = pruned = 0
    for positions, preds, vetoes, rows in FOLDS:
        folded = kernels.closure_rows(rows)
        if cyclic(folded):
            cycles += 1
            continue
        budget = NodeBudget(None)
        list(iter_extensions(sum(1 << p for p in positions), folded, budget))
        pruned += budget.explored < reference_placements(positions, preds, vetoes)
    assert cycles and pruned


def _closed_acyclic_instance(rng):
    """A universe mask and closed, acyclic successor rows over its
    positions: a random order, a chain or an antichain; positions outside
    the universe have empty rows, as in a process's base."""
    size = rng.randrange(0, 8)
    members = [k for k in range(size) if rng.random() < 0.8]
    rng.shuffle(members)
    shape = rng.choice(("random", "random", "chain", "antichain"))
    rows = [0] * size
    for t, k in enumerate(members):
        if shape == "chain" and t + 1 < len(members):
            rows[k] |= 1 << members[t + 1]
        for j in members[t + 1:]:
            if shape == "random" and rng.random() < 0.3:
                rows[k] |= 1 << j
    return sum(1 << k for k in members), kernels.closure_rows(rows)


ACYCLIC = [
    (0, []),  # an empty universe over an empty index
    (0, [0, 0, 0]),  # and over a nonempty one
    (0b11111, kernels.closure_rows([0b10, 0b100, 0b1000, 0b10000, 0])),  # a chain
    (0b111110, [0] * 6),  # an antichain, position 0 left out
] + [_closed_acyclic_instance(random.Random(seed)) for seed in range(200)]


@pytest.mark.parametrize("k", range(len(ACYCLIC)))
def test_successor_rows_match_the_reference_on_predecessor_masks(k):
    universe, rows = ACYCLIC[k]
    assert not cyclic(rows)
    budget, reference = NodeBudget(None), NodeBudget(None)
    found = list(iter_extensions(universe, rows, budget))
    positions = mask_positions(universe)
    expected = list(reference_extensions(positions, predecessors(rows), None, reference))
    assert found == expected
    assert budget.explored == reference.explored


def test_acyclic_instances_cover_chains_and_antichains():
    counts = [len(list(iter_extensions(u, rows, NodeBudget(None)))) for u, rows in ACYCLIC]
    sizes = [bin(u).count("1") for u, _ in ACYCLIC]
    assert any(n == 1 and size > 2 for n, size in zip(counts, sizes))
    assert any(n == math.factorial(size) and size > 2 for n, size in zip(counts, sizes))
    assert any(1 < n < math.factorial(size) for n, size in zip(counts, sizes))


def test_empty_order_has_one_extension():
    budget = NodeBudget(None)
    assert list(iter_extensions(0, [], budget)) == [()]
    assert budget.explored == 0


def test_order_without_extension():
    # 1 before 2 and 2 before 1: a closure with self bits, which the
    # descent skips; the search itself never readies a position on a cycle
    closed = kernels.closure_rows([0, 1 << 2, 1 << 1])
    assert cyclic(closed)
    assert list(iter_extensions(0b111, closed, NodeBudget(None))) == []


def test_no_constraints_gives_all_permutations_in_order():
    found = list(iter_extensions(0b11010, [0] * 5, NodeBudget(None)))
    assert found == list(itertools.permutations((1, 3, 4)))


def test_budget_exceeded_counts_the_failing_placement():
    budget = NodeBudget(4)
    with pytest.raises(BudgetExceeded) as info:
        list(iter_extensions(0b111, [0] * 3, budget))
    assert info.value.explored == 5


INVALID_BUDGETS = (-1, True, False, 2.5, "10")


@pytest.mark.parametrize("limit", INVALID_BUDGETS)
def test_invalid_budget_is_a_usage_error(limit):
    with pytest.raises(ValueError, match="node budget must be None or a non-negative int"):
        NodeBudget(limit)


def test_zero_budget_allows_no_placement_and_none_any():
    with pytest.raises(BudgetExceeded) as info:
        list(iter_extensions(0b1, [0], NodeBudget(0)))
    assert info.value.explored == 1
    budget = NodeBudget(None)
    assert len(list(iter_extensions(0b1111, [0] * 4, budget))) == 24
    assert budget.explored == 64


def _entry_points(limit):
    """Each public search over the write-race fixture, with `limit` as
    its node budget."""
    parsed = fixtures.load("write-race")
    program, execution = parsed.program, parsed.execution
    empty = Record.of({p: frozenset() for p in program.processes})
    return {
        "enumerate_certifying": lambda: list(
            oracle.enumerate_certifying(program, empty, "strong_causal", node_budget=limit)
        ),
        "certifying_replays": lambda: list(
            oracle.certifying_replays(program, empty, node_budget=limit)
        ),
        "find_explanation": lambda: consistency.find_explanation(
            execution, "strong_causal", node_budget=limit
        ),
        "check_cache": lambda: consistency.check_cache(execution, node_budget=limit),
    }


@pytest.mark.parametrize("entry", sorted(_entry_points(None)))
@pytest.mark.parametrize("limit", INVALID_BUDGETS)
def test_entry_points_reject_an_invalid_budget(entry, limit):
    with pytest.raises(ValueError, match="node budget"):
        _entry_points(limit)[entry]()


@pytest.mark.parametrize("entry", sorted(_entry_points(None)))
def test_entry_points_run_on_a_zero_and_an_unlimited_budget(entry):
    _entry_points(None)[entry]()
    with pytest.raises(BudgetExceeded):
        _entry_points(0)[entry]()


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
