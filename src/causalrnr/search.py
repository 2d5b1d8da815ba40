"""Backtracking enumeration of linear extensions over bit positions.

The items to order are bit positions of a program's interned index (see
`model.Program.index`), given in ascending order; since a position is its
id's rank in sorted id order, ascending positions are ascending ids.  The
constraints are masks over the same index:

* `preds[k]`, the positions that must be placed before position k;
* `vetoes[k]`, a tuple of `(need, unless)` mask pairs: position k may not
  be placed while some position of `need` is placed and no position of
  `unless` is.  Vetoes let a caller prune at placement time a prefix that
  no completion could make acceptable.

The search is a single-worker depth-first loop over a cursor stack; at
each depth candidates are tried in ascending position order, so the
extensions come out in lexicographic order and every enumeration in the
package is deterministic and reproducible.  Each placement spends one
unit of the `NodeBudget`.

`predecessors` turns successor rows into the predecessor masks, closing
them first, or adding them onto rows already closed.  The view-set
descent (`consistency.iter_view_sets`) closes each process's fixed
constraints once and adds each node's orderings onto them
(`kernels.close_onto`), instead of closing the whole index again at
every node.
"""

from __future__ import annotations

from typing import Iterator, Optional, Sequence

from causalrnr import kernels
from causalrnr.errors import BudgetExceeded

Veto = tuple[int, int]  # (need, unless)


class NodeBudget:
    """Counts DFS placements across a whole search."""

    def __init__(self, limit: int | None):
        self.limit = limit
        self.explored = 0

    def spend(self) -> None:
        self.explored += 1
        if self.limit is not None and self.explored > self.limit:
            raise BudgetExceeded(
                f"search exceeded {self.limit} placements", explored=self.explored
            )


def iter_extensions(
    positions: tuple[int, ...],
    preds: Sequence[int],
    vetoes: Optional[Sequence[tuple[Veto, ...]]] = None,
    budget: Optional[NodeBudget] = None,
) -> Iterator[tuple[int, ...]]:
    """Yield all orderings of `positions` that place every position after
    its `preds` mask and against none of its `vetoes`, in lexicographic
    order.  `preds` and `vetoes` are indexed by position."""
    n = len(positions)
    if n == 0:
        yield ()
        return
    candidates = [
        (k, 1 << k, preds[k], vetoes[k] if vetoes is not None else ())
        for k in positions
    ]
    spend = budget.spend if budget is not None else None
    placed = 0
    seq: list[int] = []
    cursor = [0]  # per depth, the index of the next candidate to try
    while cursor:
        c = cursor[-1]
        while c < n:
            k, bit, need, vetoed = candidates[c]
            c += 1
            if placed & bit or need & ~placed:
                continue
            if vetoed and any(
                placed & v_need and not placed & unless for v_need, unless in vetoed
            ):
                continue
            if spend is not None:
                spend()
            if len(seq) == n - 1:
                seq.append(k)
                yield tuple(seq)
                seq.pop()
                continue
            cursor[-1] = c
            placed |= bit
            seq.append(k)
            cursor.append(0)
            break
        else:
            cursor.pop()
            if seq:
                placed ^= 1 << seq.pop()


def predecessors(
    rows: Sequence[int], onto: Optional[Sequence[int]] = None
) -> list[int] | None:
    """Predecessor masks for `iter_extensions` from successor rows over
    the index (bit j of row k: k goes before j), closed first, or added
    onto `onto`, rows already closed; None when the result holds a cycle,
    which shows as a self bit of the closure."""
    if onto is None:
        closed = kernels.closure_rows(list(rows))
    else:
        closed = kernels.close_onto(onto, rows)
    preds = [0] * len(closed)
    for j, row in enumerate(closed):
        if row >> j & 1:
            return None
        bit = 1 << j
        while row:
            low = row & -row
            preds[low.bit_length() - 1] |= bit
            row ^= low
    return preds
