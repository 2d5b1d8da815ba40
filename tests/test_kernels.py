"""The reachability kernels agree with a naive DFS oracle."""

import random

import pytest

from causalrnr import kernels


def dfs_closure(rows):
    """Independent oracle: per-source DFS reachability, no reflexive pairs
    unless a cycle returns to the source."""
    n = len(rows)
    out = [0] * n
    for src in range(n):
        stack, reached = [src], 0
        while stack:
            cur = stack.pop()
            row = rows[cur]
            while row:
                nxt = (row & -row).bit_length() - 1
                row &= row - 1
                if not (reached >> nxt) & 1:
                    reached |= 1 << nxt
                    stack.append(nxt)
        out[src] = reached
    return out


def random_rows(rng, n, density=0.3):
    rows = [0] * n
    for i in range(n):
        for j in range(n):
            if i != j and rng.random() < density:
                rows[i] |= 1 << j
    return rows


def test_pure_matches_dfs_oracle():
    rng = random.Random(7)
    for _ in range(200):
        n = rng.randint(0, 9)
        rows = random_rows(rng, n)
        assert kernels.closure_rows(rows) == dfs_closure(rows)


def test_closure_and_cycle_match_dfs_oracle():
    rng = random.Random(11)
    cyclic = 0
    for _ in range(200):
        n = rng.randint(0, 12)
        rows = random_rows(rng, n)
        reached = dfs_closure(rows)
        assert kernels.closure_rows(rows) == reached
        # a cycle is a source that reaches itself
        expected = any((reached[i] >> i) & 1 for i in range(n))
        assert kernels.has_cycle_rows(rows) == expected
        cyclic += expected
    assert 0 < cyclic < 200


def test_reduction_round_trip():
    rng = random.Random(13)
    for _ in range(200):
        n = rng.randint(0, 8)
        # build a DAG: only edges i -> j with i < j
        rows = [0] * n
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < 0.4:
                    rows[i] |= 1 << j
        closed = kernels.closure_rows(rows)
        reduced = kernels.reduction_rows(closed)
        assert kernels.closure_rows(reduced) == closed


def test_large_inputs_fall_back():
    n = 70  # rows wider than one 64-bit word
    rows = [0] * n
    rows[0] = 1 << 69
    rows[69] = 1 << 3
    closed = kernels.closure_rows(rows)
    assert (closed[0] >> 3) & 1
    assert not kernels.has_cycle_rows(rows)
    rows[3] = 1 << 0
    assert kernels.has_cycle_rows(rows)
    assert kernels.closure_rows(rows) == dfs_closure(rows)


def test_close_onto_matches_closure_with_several_new_sources():
    rng = random.Random(17)
    sources = cyclic = 0
    for _ in range(300):
        n = rng.randint(1, 12)
        closed = kernels.closure_rows(random_rows(rng, n, density=0.15))
        before = list(closed)
        extra = [0] * n
        for a in rng.sample(range(n), rng.randint(1, n)):
            extra[a] = rng.getrandbits(n) & ~(1 << a)
        union = [c | e for c, e in zip(closed, extra)]
        expected = kernels.closure_rows(union)
        assert kernels.close_onto(closed, enumerate(extra)) == expected
        # the input rows are copied, not widened
        assert closed == before
        sources += sum(1 for a in range(n) if extra[a] & ~closed[a]) > 1
        cyclic += any(expected[i] >> i & 1 for i in range(n))
    # most inputs add edges from several sources, and some close a cycle,
    # which shows as self bits as in `closure_rows`
    assert sources > 150 and 0 < cyclic < 300


def random_dag_closure(rng, n):
    """Closed acyclic rows on n positions: the closure of random edges
    along a random topological order."""
    order = rng.sample(range(n), n)
    rows = [0] * n
    for x, a in enumerate(order):
        for b in order[x + 1:]:
            if rng.random() < 0.25:
                rows[a] |= 1 << b
    return kernels.closure_rows(rows)


def union_closure(closed, edges):
    union = list(closed)
    for a, targets in edges:
        union[a] |= targets
    return kernels.closure_rows(union)


def one_edge(rng, closed):
    n = len(closed)
    return [(rng.randrange(n), 1 << rng.randrange(n))]


def shared_source(rng, closed):
    n = len(closed)
    a = rng.randrange(n)
    return [(a, rng.getrandbits(n) & ~(1 << a)) for _ in range(rng.randint(2, 4))]


def implied(rng, closed):
    a = rng.randrange(len(closed))
    return [(a, closed[a] & rng.getrandbits(len(closed)))]


def closing_a_cycle(rng, closed):
    """An edge (a, b) with b already reaching a, or None if no row of
    `closed` reaches another."""
    pairs = [(a, b) for b, row in enumerate(closed) for a in range(len(closed)) if row >> a & 1]
    if not pairs:
        return None
    a, b = rng.choice(pairs)
    return [(a, 1 << b)]


EDGES = {
    "no edges": lambda rng, closed: [],
    "one edge": one_edge,
    "shared source": shared_source,
    "implied": implied,
    "cycle": closing_a_cycle,
}


@pytest.mark.parametrize("shape", sorted(EDGES))
def test_close_onto_matches_closure_of_the_union(shape):
    rng = random.Random(sorted(EDGES).index(shape))
    seen = 0
    for _ in range(200):
        closed = random_dag_closure(rng, rng.randint(1, 12))
        edges = EDGES[shape](rng, closed)
        if edges is None:
            continue
        before = list(closed)
        got = kernels.close_onto(closed, edges)
        assert got == union_closure(closed, edges)
        # the input rows are copied, not widened
        assert closed == before and got is not closed
        if shape in ("no edges", "implied"):
            assert got == closed
        if shape == "cycle":
            # the edge closes a cycle: a self bit at its source
            a = edges[0][0]
            assert got[a] >> a & 1
        seen += 1
    assert seen > 150

