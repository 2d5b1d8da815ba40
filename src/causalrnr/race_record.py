"""Records that make replays resolve every data race identically.

Under this fidelity model a record may only save data-race edges, and a
replay is valid when every process's per-variable order (its data-race
order, DRO) matches the original.  The machinery:

* strong write order (SWO): the least fixpoint of write orderings forced
  on everyone once each process reproduces its own DRO; the fragment of
  strong causal order enforceable through races alone.
* obligation graph per process: the closed union of its DRO, the foreign
  part of SWO and program order.  Everything a replay view of that
  process must respect.
* flip cascade of a candidate race pair: the write orderings that
  reversing the pair would inject into the strong write order, level by
  level until stable.
* indirectly enforced races: candidate pairs whose reversal makes the
  cascade collide with some process's obligation graph (a cycle), so no
  valid replay can reverse them and recording them is redundant.

The minimal record keeps, per process, the reduction of its obligation
graph minus program order, foreign strong write order and indirectly
enforced races.  `RaceAnalysis.in_record` decides that membership for
one edge, building only that edge's cascade, and `RaceAnalysis.record`
applies the same test to every candidate edge, so membership has one
definition; a necessity witness needs only its own edge's cascade.
`minimal_race_record` and the one-shot race witness build their
analysis with `RaceAnalysis._checked`, behind the strong causality
check.  The data-race orders are the views' order rows
(`ViewSet.order_rows`) masked by variable.

`RaceAnalysis` works on bitmask rows over the index its `Program`
interns (see `causalrnr.model`), and everything rests on one fixpoint
over closed rows: each process's DRO and program-order base is closed
once, and each strong write order level only adds its new rows onto the
closed rows (`kernels.close_onto`, the package's one incremental
closure).  The rows it ends with are the closed obligation graphs,
since a process's own-write part of SWO adds nothing to its own
closure; a cycle shows as a self bit in them, so no separate cycle
check runs.  Cascade levels and collision tests add the cascade onto
those closed rows too; only the owner's collision test, whose graph
loses the flipped pair and is no longer closed, closes from scratch.
Id pairs and `Relation`s are built only for its public results:
`obligation`, `strong_write_order`, `swo_from_others`,
`flip_cascade`, `indirectly_enforced` and the `Record`s.  Callers that
work on rows read `swo_rows`, `obligation_rows`, `dro_rows`,
`cascade_levels` and the one-pair collision test `collides`, as the
fuzz battery's observations do.  `obligation`, `obligation_rows`,
`dro`, `dro_rows`, `indirectly_enforced`, `flip_cascade`,
`cascade_levels` and `collides` raise ValueError for a process or an
operation the program lacks;
`in_record` and `candidate_rows`, which record construction and the
witnesses run per edge, add no such check.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from causalrnr import kernels
from causalrnr.consistency import _strong_causal_check, cyclic
from causalrnr.errors import (
    CyclicInput,
    InternalInvariant,
    NotStronglyCausal,
    PreconditionViolated,
)
from causalrnr.model import (
    Execution,
    Program,
    ViewSet,
    WRITE,
    check_complete,
    data_race_order,
    write_read_write_order,
)
from causalrnr.records import Record
from causalrnr.relations import Pair, Relation, is_pair, transitive_reduction, union_closed


@dataclass(frozen=True)
class WriteOrderLevels:
    """Strong write order with, for each edge, the first fixpoint level
    it appeared at (level 1 needs no previously forced edges)."""

    relation: Relation
    level: tuple[tuple[Pair, int], ...]

    def level_of(self, edge: Pair) -> int:
        """The level `edge` appeared at; an edge outside the strong write
        order raises `PreconditionViolated`."""
        try:
            return self._levels[edge]
        except KeyError:
            raise PreconditionViolated(
                f"edge {edge} is not in the strong write order"
            ) from None

    @cached_property
    def _levels(self) -> dict[Pair, int]:
        return dict(self.level)


@dataclass(frozen=True)
class FlipCascade:
    """The write orderings injected by reversing one race pair, level by
    level until the fixpoint; `union` is the full cascade."""

    process: int
    source: Pair
    levels: tuple[frozenset[Pair], ...]

    @property
    def union(self) -> frozenset[Pair]:
        return self.levels[-1] if self.levels else frozenset()


class RaceAnalysis:
    """Shared intermediate relations for one view set.

    All public module functions are thin wrappers; building the analysis
    once amortises the fixpoints across record construction, the
    redundancy test and the necessity witnesses.  The strong write order
    fixpoint (`_solve`) runs once, on first use, and leaves each
    process's closed rows, which are its obligation graph (self bits
    mark cycles, so `candidate_rows` raises `CyclicInput` without a
    further closure).  Everything is computed and cached as rows over
    the program index; `Relation`s and id pairs, `strong_write_order`'s
    `WriteOrderLevels` included, are built only for the public results.
    A view set without a view of each process raises `UniverseMismatch`.
    """

    def __init__(self, views: ViewSet, program: Program):
        check_complete(views, program)
        self.views = views
        self.program = program
        self._dro: dict[int, list[int]] = {}
        self._obligation: dict[int, list[int]] = {}
        self._targets: dict[int, list[int]] = {}
        self._cascades: dict[tuple[int, str, str], tuple[list[int], ...]] = {}
        self._candidates: dict[int, list[int]] = {}
        self._collisions: dict[tuple[int, int, int], bool] = {}
        self._indirect: dict[int, frozenset[Pair]] = {}
        self._swo: WriteOrderLevels | None = None
        self._swo_rows: list[int] = []
        self._levels: list[list[int]] = []
        self._closed: dict[int, list[int]] | None = None

    @classmethod
    def _checked(cls, views: ViewSet, execution: Execution) -> RaceAnalysis:
        """The analysis of views that pass the strong causality check,
        which raises `NotStronglyCausal` otherwise: the constructor of
        `minimal_race_record` and the one-shot race witness."""
        bad, _ = _strong_causal_check(views, execution)
        if bad is not None:
            raise NotStronglyCausal(str(bad))
        return cls(views, execution.program)

    def dro_rows(self, process: int) -> list[int]:
        """The process's data-race order as rows: its view's order rows
        masked by variable (`model.data_race_rows`), every process's built
        on the first call.  Callers must not change the rows."""
        if process not in self._dro:
            self._check_process(process)
            masks = self.program.variable_masks
            for i, rows in zip(self.views.processes(), self.views.order_rows(self.program)):
                self._dro[i] = [row & m for row, m in zip(rows, masks)]
        return self._dro[process]

    def dro(self, process: int) -> Relation:
        return Relation(
            self.program.universe_of(process),
            self.program.pairs_of(self.dro_rows(process)),
        )

    def _check_process(self, process: int) -> None:
        """Raises ValueError for a process the program lacks, at the
        public entry points that take one."""
        self.program.process_index(process)

    def _check_pair(self, process: int, first: str, second: str) -> None:
        """`_check_process`, and ValueError for an operation the program
        lacks."""
        self._check_process(process)
        for op in (first, second):
            if op not in self.program.index:
                raise ValueError(f"unknown operation {op}")

    def _base_rows(self, process: int) -> list[int]:
        po = self.program.process_index(process).po_rows
        return [d | p for d, p in zip(self.dro_rows(process), po)]

    def _solve(self) -> None:
        """The strong write order fixpoint, level by level, over closed
        rows.  Each process's DRO and program-order base is closed once;
        at level k every closed row set gains only that level's new
        forced rows (`kernels.close_onto`), since the closure of
        base ∪ forced_k is the closure of closure(base ∪ forced_(k-1))
        ∪ new_k.  Level k+1 collects, per process, the orderings its
        closed rows place before its own writes that are not yet forced.
        Fills the forced rows, the rows of each level and each process's
        closed rows at the fixpoint (self bits mark cycles)."""
        if self._closed is not None:
            return
        program = self.program
        positions = program.write_positions
        closed = {
            view.process: kernels.closure_rows(self._base_rows(view.process))
            for view in self.views.views
        }
        forced = [0] * len(program.all_ops)
        while True:
            new = [0] * len(forced)
            for i, rows in closed.items():
                own = program.process_index(i).own_writes_mask
                for p in positions:
                    new[p] |= rows[p] & own & ~forced[p] & ~(1 << p)
            if not any(new):
                break
            self._levels.append(new)
            forced = [f | n for f, n in zip(forced, new)]
            closed = {i: kernels.close_onto(rows, enumerate(new)) for i, rows in closed.items()}
        self._swo_rows = forced
        self._closed = closed

    def strong_write_order(self) -> WriteOrderLevels:
        if self._swo is None:
            self._solve()
            program = self.program
            level = sorted(
                (pair, k)
                for k, rows in enumerate(self._levels, start=1)
                for pair in program.pairs_of(rows)
            )
            self._swo = WriteOrderLevels(
                Relation(program.writes, program.pairs_of(self._swo_rows)), tuple(level)
            )
        return self._swo

    def swo_rows(self) -> list[int]:
        """The strong write order as rows over the program index: row w
        holds the writes it forces after w.  Callers must not change
        the rows."""
        self._solve()
        return self._swo_rows

    def swo_from_others(self, process: int) -> frozenset[Pair]:
        own = self.program.process_index(process).own_writes_mask
        return self.program.pairs_of([row & ~own for row in self.swo_rows()])

    def _closed_rows(self, process: int) -> list[int]:
        """The process's closed rows at the fixpoint, self bits kept: a
        self bit marks an operation on a cycle of its obligation graph."""
        self._solve()
        return self._closed[process]

    def obligation_rows(self, process: int) -> list[int]:
        """The closed obligation graph as rows, self bits cleared: row k
        is everything operation k must precede.

        These are the fixpoint's closed rows of the process, with no
        second closure.  The graph is closure(base ∪ foreign SWO), the
        rows are closure(base ∪ SWO), and the two are equal because an
        edge into one of the process's own writes is forced only by the
        process's own closed rows.  By induction on the level k: the
        own-write edges forced at level k lie in closure(base ∪
        forced_(k-1)), which by hypothesis is closure(base ∪ foreign
        part of forced_(k-1)), so they add nothing to the closure of
        base ∪ foreign part of forced_k."""
        if process not in self._obligation:
            self._check_process(process)
            self._obligation[process] = [
                r & ~(1 << k) for k, r in enumerate(self._closed_rows(process))
            ]
        return self._obligation[process]

    def obligation(self, process: int) -> Relation:
        return Relation(
            self.program.universe_of(process),
            self.program.pairs_of(self.obligation_rows(process)),
        )

    def _target_rows(self, process: int) -> list[int]:
        """Row k: the process's own writes that are k or that its
        obligation graph places after k."""
        if process not in self._targets:
            own = self.program.process_index(process).own_writes_mask
            self._targets[process] = [
                own & (1 << k | row)
                for k, row in enumerate(self.obligation_rows(process))
            ]
        return self._targets[process]

    def flip_cascade(self, process: int, first: str, second: str) -> FlipCascade:
        levels = tuple(
            self.program.pairs_of(rows)
            for rows in self.cascade_levels(process, first, second)
        )
        return FlipCascade(process, (first, second), levels)

    def cascade_levels(self, process: int, first: str, second: str) -> tuple[list[int], ...]:
        """The flip cascade's levels as rows over the program index, the
        rows of `flip_cascade`'s levels; callers must not change them.
        An unknown process or operation raises ValueError."""
        self._check_pair(process, first, second)
        return self._cascade(process, first, second)

    def cascade_rows(self, process: int, first: str, second: str) -> list[int]:
        """The flip cascade's union as rows over the program index."""
        levels = self._cascade(process, first, second)
        return levels[-1] if levels else [0] * len(self.program.all_ops)

    def _cascade(self, i: int, first: str, second: str) -> tuple[list[int], ...]:
        """The flip cascade's levels as rows over the program index."""
        key = (i, first, second)
        if key not in self._cascades:
            self._cascades[key] = self._build_cascade(i, first, second)
        return self._cascades[key]

    def _build_cascade(self, i: int, first: str, second: str) -> tuple[list[int], ...]:
        program = self.program
        if program.ops[second].kind != WRITE:
            # a reversed (write, read) pair forces no write orderings
            return ()
        index = program.index
        positions = program.write_positions
        obligation = self.obligation_rows(i)
        s = index[second]
        targets = self._target_rows(i)[index[first]]
        current = [0] * len(obligation)
        for w3 in positions:
            if w3 == s or (obligation[w3] >> s) & 1:
                current[w3] = targets & ~(1 << w3)
        if not any(current):
            return (current,)
        levels = [current]
        procs = sorted(program.processes)
        while True:
            grown = list(current)
            for j in procs:
                mixed = kernels.close_onto(self._closed_rows(j), enumerate(current))
                targets_j = self._target_rows(j)
                for w5 in positions:
                    ends = current[w5]
                    reach = 0
                    while ends:
                        low = ends & -ends
                        reach |= targets_j[low.bit_length() - 1]
                        ends ^= low
                    if not reach:
                        continue
                    for w3 in positions:
                        if w3 == w5 or (mixed[w3] >> w5) & 1:
                            grown[w3] |= reach & ~(1 << w3)
            if grown == current:
                break
            levels.append(grown)
            current = grown
        return tuple(levels)

    def _collides(self, i: int, o1: int, o2: int) -> bool:
        """Whether reversing the race (o1, o2) of process i, given as
        positions, makes its flip cascade collide with some process's
        obligation graph (a cycle), so that no valid replay reverses it."""
        key = (i, o1, o2)
        if key in self._collisions:
            return self._collisions[key]
        ids = self.program.all_ops
        cascade = self.cascade_rows(i, ids[o1], ids[o2])
        found = False
        if any(cascade):
            for m in sorted(self.program.processes):
                if m != i:
                    found = cyclic(kernels.close_onto(self._closed_rows(m), enumerate(cascade)))
                else:
                    # the flipped pair leaves the owner's graph, which is
                    # then no longer closed: close it from scratch
                    obligation = self.obligation_rows(i)
                    mixed = [o | c for o, c in zip(obligation, cascade)]
                    mixed[o1] = obligation[o1] & ~(1 << o2) | cascade[o1]
                    found = kernels.has_cycle_rows(mixed)
                if found:
                    break
        self._collisions[key] = found
        return found

    def collides(self, process: int, first: str, second: str) -> bool:
        """Whether reversing the race (first, second) of `process` makes
        its flip cascade collide with some obligation graph: the test
        `indirectly_enforced` applies to each race of `process` that ends
        at a write.  An unknown process or operation raises ValueError."""
        self._check_pair(process, first, second)
        index = self.program.index
        return self._collides(process, index[first], index[second])

    def indirectly_enforced(self, process: int) -> frozenset[Pair]:
        if process in self._indirect:
            return self._indirect[process]
        self._check_process(process)
        i = process
        program = self.program
        ids = program.all_ops
        dro = self.dro_rows(i)
        out = set()
        for o1 in range(len(dro)):
            later = dro[o1] & program.writes_mask
            while later:
                low = later & -later
                later ^= low
                o2 = low.bit_length() - 1
                if self._collides(i, o1, o2):
                    out.add((ids[o1], ids[o2]))
        self._indirect[i] = frozenset(out)
        return self._indirect[i]

    def candidate_rows(self, process: int) -> list[int]:
        """The reduction of the process's obligation graph minus program
        order and foreign strong write order, as rows: its minimal race
        record plus its indirectly enforced races, so a replay that
        extends these rows extends the minimal record."""
        if process not in self._candidates:
            program = self.program
            closed = self._closed_rows(process)
            if cyclic(closed):
                raise CyclicInput("transitive reduction requires an acyclic relation")
            index = program.process_index(process)
            own = index.own_writes_mask
            kept = [
                r & ~p & ~(s & ~own)
                for r, p, s in zip(kernels.reduction_rows(closed), index.po_rows, self._swo_rows)
            ]
            stray = [k & ~d for k, d in zip(kept, self.dro_rows(process))]
            if any(stray):
                raise InternalInvariant(
                    f"record for process {process} holds non-race edges "
                    f"{sorted(program.pairs_of(stray))}"
                )
            self._candidates[process] = kept
        return self._candidates[process]

    def in_record(self, process: int, edge: Pair) -> bool:
        """Whether `edge` is in the minimal race record of `process`: an
        edge of the obligation graph's reduction that is neither program
        order nor foreign strong write order, and whose flip cascade does
        not collide.  Only that edge's cascade is built; `record` applies
        the same test to every edge.  Anything but a pair of operation
        ids is in no record."""
        if not is_pair(edge):
            return False
        index = self.program.index
        a, b = (index.get(o) for o in edge)
        if process not in self.views.by_process or a is None or b is None:
            return False
        return bool(self.candidate_rows(process)[a] >> b & 1) and not self._collides(
            process, a, b
        )

    def record(self) -> Record:
        program = self.program
        out = {}
        for view in self.views.views:
            i = view.process
            candidates = program.pairs_of(self.candidate_rows(i))
            out[i] = frozenset(e for e in candidates if self.in_record(i, e))
        return Record.of(out)


def strong_write_order(views: ViewSet, program: Program) -> WriteOrderLevels:
    return RaceAnalysis(views, program).strong_write_order()


def flip_cascade(
    views: ViewSet, program: Program, process: int, first: str, second: str
) -> FlipCascade:
    return RaceAnalysis(views, program).flip_cascade(process, first, second)


def indirectly_enforced_races(
    views: ViewSet, program: Program, process: int
) -> Relation:
    analysis = RaceAnalysis(views, program)
    universe = program.universe_of(process)
    return Relation(universe, analysis.indirectly_enforced(process))


def minimal_race_record(views: ViewSet, execution: Execution) -> Record:
    """The good record with the fewest race edges, per process the
    obligation-graph reduction minus everything already guaranteed."""
    return RaceAnalysis._checked(views, execution).record()


def naive_causal_race_record(views: ViewSet, execution: Execution) -> Record:
    """The scheme that closes DRO with write-read-write order and program
    order, reduces, and drops WO and PO edges.  Not good under causal
    consistency; kept as the reference counterexample construction."""
    program = execution.program
    wo = write_read_write_order(execution)
    drop = set(program.po_pairs) | set(wo.pairs)
    out = {}
    for view in views.views:
        i = view.process
        universe = program.universe_of(i)
        closed = union_closed(
            data_race_order(views[i], program),
            wo,
            Relation(universe, program.process_index(i).po_pairs),
        )
        reduced = transitive_reduction(closed)
        out[i] = frozenset(e for e in reduced.pairs if e not in drop)
    return Record.of(out)
