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
enforced races.
"""

from __future__ import annotations

from dataclasses import dataclass

from causalrnr.consistency import check_strong_causal
from causalrnr.errors import InternalInvariant, NotStronglyCausal
from causalrnr.model import (
    Execution,
    Program,
    ViewSet,
    WRITE,
    data_race_order,
    write_read_write_order,
)
from causalrnr.records import Record
from causalrnr.relations import (
    Pair,
    Relation,
    disjoint_union,
    has_cycle,
    transitive_closure,
    transitive_reduction,
    union_closed,
)


@dataclass(frozen=True)
class WriteOrderLevels:
    """Strong write order with, for each edge, the first fixpoint level
    it appeared at (level 1 needs no previously forced edges)."""

    relation: Relation
    level: tuple[tuple[Pair, int], ...]

    def level_of(self, edge: Pair) -> int:
        return dict(self.level)[edge]


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
    redundancy test and the necessity witnesses.
    """

    def __init__(self, views: ViewSet, program: Program):
        self.views = views
        self.program = program
        self._dro: dict[int, Relation] = {}
        self._obligation: dict[int, Relation] = {}
        self._cascades: dict[tuple[int, Pair], FlipCascade] = {}
        self._swo: WriteOrderLevels | None = None

    def dro(self, process: int) -> Relation:
        if process not in self._dro:
            self._dro[process] = data_race_order(self.views[process], self.program)
        return self._dro[process]

    def _base_pairs(self, process: int) -> frozenset[Pair]:
        return self.dro(process).pairs | self.program.process_index(process).po_pairs

    def strong_write_order(self) -> WriteOrderLevels:
        if self._swo is not None:
            return self._swo
        program = self.program
        writes = set(program.writes)
        forced: set[Pair] = set()
        level: dict[Pair, int] = {}
        k = 0
        while True:
            k += 1
            new: set[Pair] = set()
            for view in self.views.views:
                i = view.process
                universe = program.universe_of(i)
                closed = transitive_closure(
                    Relation(universe, self._base_pairs(i) | forced)
                )
                for a, b in closed.pairs:
                    if (
                        a in writes
                        and b in writes
                        and program.proc_of(b) == i
                        and (a, b) not in forced
                    ):
                        new.add((a, b))
            if not new:
                break
            for e in sorted(new):
                level[e] = k
            forced |= new
        rel = Relation(program.writes, frozenset(forced))
        self._swo = WriteOrderLevels(rel, tuple(sorted(level.items())))
        return self._swo

    def swo_from_others(self, process: int) -> frozenset[Pair]:
        swo = self.strong_write_order().relation
        return frozenset(
            (a, b) for a, b in swo.pairs if self.program.proc_of(b) != process
        )

    def obligation(self, process: int) -> Relation:
        if process not in self._obligation:
            universe = self.program.universe_of(process)
            pairs = self._base_pairs(process) | self.swo_from_others(process)
            self._obligation[process] = transitive_closure(Relation(universe, pairs))
        return self._obligation[process]

    def _reach(self, process: int) -> dict[str, frozenset[str]]:
        rel = self.obligation(process)
        out: dict[str, set[str]] = {o: set() for o in rel.universe}
        for a, b in rel.pairs:
            out[a].add(b)
        return {o: frozenset(s) for o, s in out.items()}

    def flip_cascade(self, process: int, first: str, second: str) -> FlipCascade:
        key = (process, (first, second))
        if key not in self._cascades:
            self._cascades[key] = self._build_cascade(process, first, second)
        return self._cascades[key]

    def _build_cascade(self, i: int, first: str, second: str) -> FlipCascade:
        program = self.program
        source = (first, second)
        if program.ops[second].kind != WRITE:
            # a reversed (write, read) pair forces no write orderings
            return FlipCascade(i, source, ())
        writes = program.writes
        reach_i = self._reach(i)
        own = [w for w in writes if program.proc_of(w) == i]
        level1 = {
            (w3, w4)
            for w4 in own
            if first == w4 or w4 in reach_i[first]
            for w3 in writes
            if w3 != w4 and (w3 == second or second in reach_i[w3])
        }
        if not level1:
            return FlipCascade(i, source, (frozenset(),))
        levels = [frozenset(level1)]
        current = set(level1)
        while True:
            grown = set(current)
            for j in sorted(program.processes):
                universe = program.universe_of(j)
                mixed = transitive_closure(
                    Relation(universe, self.obligation(j).pairs | frozenset(current))
                )
                reach_j = self._reach(j)
                own_j = [w for w in writes if program.proc_of(w) == j]
                for w5, w6 in current:
                    sources = [
                        w3
                        for w3 in writes
                        if w3 == w5 or (w3, w5) in mixed.pairs
                    ]
                    targets = [
                        w4
                        for w4 in own_j
                        if w6 == w4 or w4 in reach_j[w6]
                    ]
                    for w3 in sources:
                        for w4 in targets:
                            if w3 != w4:
                                grown.add((w3, w4))
            if grown == current:
                break
            levels.append(frozenset(grown))
            current = grown
        return FlipCascade(i, source, tuple(levels))

    def indirectly_enforced(self, process: int) -> frozenset[Pair]:
        i = process
        program = self.program
        out = set()
        for o1, o2 in sorted(self.dro(i).pairs):
            if program.ops[o2].kind != WRITE:
                continue
            cascade = self.flip_cascade(i, o1, o2).union
            if not cascade:
                continue
            for m in sorted(program.processes):
                base = self.obligation(m).pairs
                if m == i:
                    base = base - {(o1, o2)}
                mixed = disjoint_union(
                    Relation(program.universe_of(m), base),
                    Relation(program.writes, cascade),
                )
                if has_cycle(mixed):
                    out.add((o1, o2))
                    break
        return frozenset(out)

    def record(self) -> Record:
        program = self.program
        po = program.po_pairs
        out = {}
        for view in self.views.views:
            i = view.process
            reduced = transitive_reduction(self.obligation(i))
            drop = set(po) | self.swo_from_others(i) | self.indirectly_enforced(i)
            kept = frozenset(e for e in reduced.pairs if e not in drop)
            stray = kept - self.dro(i).pairs
            if stray:
                raise InternalInvariant(
                    f"record for process {i} holds non-race edges {sorted(stray)}"
                )
            out[i] = kept
        return Record.of(out)


def strong_write_order(views: ViewSet, program: Program) -> WriteOrderLevels:
    return RaceAnalysis(views, program).strong_write_order()


def obligation_graph(views: ViewSet, program: Program, process: int) -> Relation:
    return RaceAnalysis(views, program).obligation(process)


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
    bad = check_strong_causal(views, execution)
    if bad is not None:
        raise NotStronglyCausal(str(bad))
    return RaceAnalysis(views, execution.program).record()


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
