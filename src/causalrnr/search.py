"""Backtracking enumeration of linear extensions over bit positions.

The items to order are the bit positions of a mask `universe` over a
program's interned index (see `model.Program.index`); since a position
is its id's rank in sorted id order, ascending positions are ascending
ids.  The one constraint is a relation given as closed, acyclic
successor rows (bit j of row k: k goes before j), the representation
every search in the package places positions on.  A caller folds any
other precedence into the rows first (the descent adds the edges from
each own write to the writes of its SCO summary), so the search is plain
linear-extension enumeration (Knuth and Szwarcfiter, IPL 2(6), 1974).

The search is a single-worker depth-first loop over a stack of frames.
A frame's candidates are its ready set: the remaining positions that no
remaining position reaches, as in Kahn's topological sort (CACM 5(11),
1962); over closed, acyclic rows every prefix placed that way extends to
a full ordering.  Candidates are tried in ascending bit order, so the
extensions come out in lexicographic order and every enumeration in the
package is deterministic and reproducible.  Each placement spends one
unit of the `NodeBudget`.

The view-set descent (`consistency.iter_view_sets`), the engine's one
caller, closes each process's fixed constraints once and adds each
node's orderings onto them (`kernels.close_onto`), instead of closing
the whole index again at every node; it skips a cyclic closure, which
has no extension.  The fixpoint walk (`consistency._walk`) and the least
replay (`oracle._least_replay`) read the same ready sets off their own
closed rows.
"""

from __future__ import annotations

from typing import Iterator, Sequence

from causalrnr.errors import BudgetExceeded


class NodeBudget:
    """Counts DFS placements across a whole search, allowing `limit` of
    them (None: any number); any other limit is a usage error."""

    def __init__(self, limit: int | None):
        if limit is not None and (type(limit) is not int or limit < 0):
            raise ValueError(f"node budget must be None or a non-negative int, not {limit!r}")
        self.limit = limit
        self.explored = 0

    def spend(self) -> None:
        self.explored += 1
        if self.limit is not None and self.explored > self.limit:
            raise BudgetExceeded(
                f"search exceeded {self.limit} placements", explored=self.explored
            )


def _ready(rows: Sequence[int], remaining: int) -> int:
    """The positions of `remaining` that no position of it reaches.  A
    position some earlier one reaches adds nothing to the blocked mask:
    over closed rows its row lies inside the earlier one's."""
    blocked = 0
    rest = remaining
    while rest:
        low = rest & -rest
        blocked |= rows[low.bit_length() - 1]
        rest &= ~(blocked | low)
    return remaining & ~blocked


def iter_extensions(
    universe: int, rows: Sequence[int], budget: NodeBudget
) -> Iterator[tuple[int, ...]]:
    """Yield all orderings of the positions in the mask `universe` that
    respect the closed, acyclic successor rows `rows`, indexed by
    position, in lexicographic order, spending one unit of `budget` per
    placement."""
    if not universe:
        yield ()
        return
    spend = budget.spend
    seq: list[int] = []
    # per depth: [remaining positions, candidates left]
    stack = [[universe, _ready(rows, universe)]]
    while stack:
        top = stack[-1]
        remaining, candidates = top
        if not candidates:
            stack.pop()
            if seq:
                seq.pop()
            continue
        low = candidates & -candidates
        top[1] = candidates ^ low
        spend()
        seq.append(low.bit_length() - 1)
        rest = remaining ^ low
        if rest & (rest - 1):
            stack.append([rest, _ready(rows, rest)])
            continue
        if rest:
            # the one position left is ready: place it without a frame
            spend()
            seq.append(rest.bit_length() - 1)
            yield tuple(seq)
            seq.pop()
        else:
            yield tuple(seq)
        seq.pop()
