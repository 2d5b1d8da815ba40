"""Reachability kernels over bitmask adjacency rows.

A relation on n elements is encoded as a list of n integers; bit j of
row i is set iff the edge (i, j) is present.  These routines are the hot
inner loops of every closure, cycle and reduction query in the package:
Warshall closure, cycle detection, transitive reduction, and two
incremental closures that add edges to rows already closed (`close_with`
for the edges out of one element, `close_onto` for a whole set of rows).
They are plain Python; `BACKEND` names them.
"""

from __future__ import annotations

from typing import Sequence

BACKEND = "python"


def _closure(rows: Sequence[int]) -> list[int]:
    out = list(rows)
    n = len(out)
    for k in range(n):
        row_k = out[k]
        if not row_k:
            continue
        bit = 1 << k
        for i in range(n):
            row_i = out[i]
            if row_i & bit:
                merged = row_i | row_k
                if merged != row_i:
                    out[i] = merged
    return out


def closure_rows(rows: list[int]) -> list[int]:
    """Reachability by at least one edge (Warshall over bitmasks)."""
    return _closure(rows)


def has_cycle_rows(rows: list[int]) -> bool:
    # through `_closure`, so that perfbench's tracer, which wraps
    # `closure_rows`, counts no closure for a cycle check
    closed = _closure(rows)
    return any((closed[i] >> i) & 1 for i in range(len(closed)))


def reduction_rows(closed: list[int]) -> list[int]:
    """Transitive reduction of a transitively closed, acyclic relation.

    An edge (i, j) survives iff no successor of i also reaches j.  A
    successor already in the cover adds nothing to it and is skipped.
    """
    out = []
    for succ in closed:
        rest = succ
        while rest:
            low = rest & -rest
            below = closed[low.bit_length() - 1]
            succ &= ~below
            rest &= ~(below | low)
        out.append(succ)
    return out


def close_with(closed: Sequence[int], a: int, targets: int) -> list[int]:
    """The closure of closed rows plus an edge from `a` to every element
    of the mask `targets`: every row that is a or reaches a gains the
    targets and everything they reach.  Cycles show as self bits, as in
    `closure_rows`."""
    gain = targets
    rest = targets
    while rest:
        low = rest & -rest
        gain |= closed[low.bit_length() - 1]
        rest ^= low
    bit = 1 << a
    return [r | gain if k == a or r & bit else r for k, r in enumerate(closed)]


def close_onto(closed: Sequence[int], extra: Sequence[int]) -> list[int]:
    """`closure_rows` of closed rows plus the edges of `extra`, added one
    source row at a time as `close_with` adds them, on one copy of the
    rows widened in place."""
    out = list(closed)
    for a, row in enumerate(extra):
        gain = rest = row & ~out[a]
        while rest:
            low = rest & -rest
            gain |= out[low.bit_length() - 1]
            rest ^= low
        if gain:
            bit = 1 << a
            for k, r in enumerate(out):
                if k == a or r & bit:
                    out[k] = r | gain
    return out
