"""The reachability kernels agree with a naive DFS oracle."""

import random

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
        assert kernels.close_onto(closed, extra) == expected
        # the input rows are copied, not widened
        assert closed == before
        sources += sum(1 for a in range(n) if extra[a] & ~closed[a]) > 1
        cyclic += any(expected[i] >> i & 1 for i in range(n))
    # most inputs add edges from several sources, and some close a cycle,
    # which shows as self bits as in `closure_rows`
    assert sources > 150 and 0 < cyclic < 300
