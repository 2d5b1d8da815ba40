"""Core data model: operations, programs, executions, views.

Operations are 4-tuples (kind, process, variable, id).  Each write carries
an implicit unique value identified with its id, so the model has no value
domain: a writes-to map from read ids to write ids captures everything the
read values convey.  A read absent from the map read the initial value.

A view is one process's total order over its own operations plus every
write of the execution; all consistency notions quantify over one view
per process.

A `Program` interns its operation ids once: `Program.index` gives each id
a bit position, its rank in sorted id order, so ascending bits list ids in
sorted order.  Per process it caches the own operations, the universe
(own operations plus all writes) and its mask, the own-write mask and
program order restricted to the universe, as pairs and as rows.  A row
over the index is an int whose bit j is set when operation j is related
to the row's operation.  `order_rows` turns a view into such rows,
checking its universe; `sequence_rows` does the same unchecked for a
tuple of positions a search placed; `data_race_rows`
keeps their same-variable part (the DRO), using `Program.variable_masks`;
`write_read_write_rows` builds WO as rows.  `check_complete` checks that
a view set has a view of every process.  The consistency checks, both
searches (which place positions, see `search`), the oracle's
certification test and completion and the race analysis work on these
rows; id pairs remain at the boundaries (text I/O, DOT output, `Record`s,
`Violation` messages and public return values such as
`write_read_write_order`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Iterator, Mapping

from causalrnr.errors import UniverseMismatch
from causalrnr.relations import Pair, Relation, pairs_of_rows

READ = "r"
WRITE = "w"


@dataclass(frozen=True)
class Operation:
    kind: str
    process: int
    variable: str
    id: str

    def __post_init__(self):
        if self.kind not in (READ, WRITE):
            raise ValueError(f"unknown operation kind {self.kind!r}")


@dataclass(frozen=True)
class ProcessIndex:
    """One process's part of a program's interned index."""

    universe: tuple[str, ...]  # own operations plus all writes, sorted
    universe_mask: int
    own_writes_mask: int
    po_pairs: frozenset[Pair]  # program order restricted to the universe
    po_rows: tuple[int, ...]  # the same, as rows over the program index


@dataclass(frozen=True)
class Program:
    processes: tuple[int, ...]
    listing: tuple[tuple[Operation, ...], ...]  # one tuple per process, in order

    @classmethod
    def of(cls, per_process: Mapping[int, Iterable[Operation]]) -> "Program":
        pids = tuple(sorted(per_process))
        return cls(pids, tuple(tuple(per_process[p]) for p in pids))

    def __post_init__(self):
        if len(set(self.processes)) != len(self.processes):
            raise ValueError("duplicate process id")
        if len(self.listing) != len(self.processes):
            raise ValueError("listing/process count mismatch")
        seen: set[str] = set()
        for pid, ops in zip(self.processes, self.listing):
            for op in ops:
                if op.process != pid:
                    raise ValueError(f"operation {op.id} filed under process {pid}")
                if op.id in seen:
                    raise ValueError(f"duplicate operation id {op.id}")
                seen.add(op.id)

    @cached_property
    def ops(self) -> dict[str, Operation]:
        return {op.id: op for ops in self.listing for op in ops}

    @cached_property
    def all_ops(self) -> tuple[str, ...]:
        return tuple(sorted(self.ops))

    @cached_property
    def writes(self) -> tuple[str, ...]:
        return tuple(o for o in self.all_ops if self.ops[o].kind == WRITE)

    @cached_property
    def index(self) -> dict[str, int]:
        """Each operation id's bit position: its rank in sorted id order."""
        return {o: k for k, o in enumerate(self.all_ops)}

    @cached_property
    def write_positions(self) -> tuple[int, ...]:
        return tuple(self.index[o] for o in self.writes)

    @cached_property
    def writes_mask(self) -> int:
        return sum(1 << k for k in self.write_positions)

    @cached_property
    def variable_masks(self) -> tuple[int, ...]:
        """Row k: the operations on operation k's variable, k included."""
        masks: dict[str, int] = {}
        for o, k in self.index.items():
            var = self.ops[o].variable
            masks[var] = masks.get(var, 0) | 1 << k
        return tuple(masks[self.ops[o].variable] for o in self.all_ops)

    @cached_property
    def po_rows(self) -> tuple[int, ...]:
        """Program order as rows over the index: row k holds the operations
        that follow operation k in its process."""
        rows = [0] * len(self.all_ops)
        for ops in self.listing:
            later = 0
            for op in reversed(ops):
                k = self.index[op.id]
                rows[k] = later
                later |= 1 << k
        return tuple(rows)

    @cached_property
    def _process_indexes(self) -> dict[int, ProcessIndex]:
        out = {}
        for pid, ops in zip(self.processes, self.listing):
            universe = tuple(sorted(set(self.own(pid)) | set(self.writes)))
            mask = sum(1 << self.index[o] for o in universe)
            po_rows = tuple(
                row & mask if (mask >> k) & 1 else 0
                for k, row in enumerate(self.po_rows)
            )
            out[pid] = ProcessIndex(
                universe=universe,
                universe_mask=mask,
                own_writes_mask=sum(
                    1 << self.index[op.id] for op in ops if op.kind == WRITE
                ),
                po_pairs=self.pairs_of(po_rows),
                po_rows=po_rows,
            )
        return out

    @cached_property
    def own_writes_masks(self) -> dict[int, int]:
        """Each process's `own_writes_mask`, read once per program."""
        return {p: pi.own_writes_mask for p, pi in self._process_indexes.items()}

    def process_index(self, process: int) -> ProcessIndex:
        try:
            return self._process_indexes[process]
        except KeyError:
            raise ValueError(f"unknown process {process}") from None

    @cached_property
    def _own(self) -> dict[int, tuple[str, ...]]:
        return {
            pid: tuple(op.id for op in ops)
            for pid, ops in zip(self.processes, self.listing)
        }

    def own(self, process: int) -> tuple[str, ...]:
        """Process `process`'s operations in program order."""
        try:
            return self._own[process]
        except KeyError:
            raise ValueError(f"unknown process {process}") from None

    def universe_of(self, process: int) -> tuple[str, ...]:
        return self.process_index(process).universe

    def pairs_of(self, rows) -> frozenset[Pair]:
        """The id pairs of rows over the index."""
        return pairs_of_rows(self.all_ops, rows)

    def is_write(self, op_id: str) -> bool:
        return self.ops[op_id].kind == WRITE

    def proc_of(self, op_id: str) -> int:
        return self.ops[op_id].process

    def var_of(self, op_id: str) -> str:
        return self.ops[op_id].variable

    @cached_property
    def po_pairs(self) -> frozenset[Pair]:
        """Program order: the disjoint union of the per-process chains, closed."""
        return self.pairs_of(self.po_rows)

    def po_restricted(self, subset: Iterable[str]) -> frozenset[Pair]:
        keep = set(subset)
        return frozenset((a, b) for a, b in self.po_pairs if a in keep and b in keep)

    @cached_property
    def variables(self) -> tuple[str, ...]:
        return tuple(sorted({op.variable for op in self.ops.values()}))


@dataclass(frozen=True)
class Execution:
    program: Program
    writes_to: Mapping[str, str] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "writes_to", dict(self.writes_to))
        ops = self.program.ops
        for read, write in self.writes_to.items():
            if read not in ops or ops[read].kind != READ:
                raise ValueError(f"writes-to source {read} is not a read")
            if write not in ops or ops[write].kind != WRITE:
                raise ValueError(f"writes-to target {write} is not a write")
            if ops[read].variable != ops[write].variable:
                raise ValueError(f"writes-to {read}<-{write} crosses variables")


@dataclass(frozen=True)
class View:
    process: int
    sequence: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "sequence", tuple(self.sequence))

    @cached_property
    def positions(self) -> dict[str, int]:
        return {o: i for i, o in enumerate(self.sequence)}

    def orders(self, a: str, b: str) -> bool:
        pos = self.positions
        return pos[a] < pos[b]

    def reduction_pairs(self) -> tuple[Pair, ...]:
        """Consecutive pairs: the transitive reduction of a total order."""
        return tuple(zip(self.sequence, self.sequence[1:]))


@dataclass(frozen=True)
class ViewSet:
    views: tuple[View, ...]

    @classmethod
    def of(cls, views: Iterable[View]) -> "ViewSet":
        return cls(tuple(views))

    @classmethod
    def _ordered(cls, views: tuple[View, ...]) -> "ViewSet":
        """A set over `views`, which must already be a tuple in strictly
        increasing process order: it is neither copied nor checked, so the
        result equals `ViewSet.of(views)` only under that precondition."""
        made = object.__new__(cls)
        made.__dict__["views"] = views
        return made

    def __post_init__(self):
        views = self.views
        if type(views) is not tuple:
            views = tuple(views)
            object.__setattr__(self, "views", views)
        # strictly increasing process ids are sorted and distinct already
        previous = None
        for view in views:
            if previous is not None and previous >= view.process:
                break
            previous = view.process
        else:
            return
        views = tuple(sorted(views, key=lambda v: v.process))
        if any(a.process == b.process for a, b in zip(views, views[1:])):
            raise ValueError("duplicate view for a process")
        object.__setattr__(self, "views", views)

    @cached_property
    def by_process(self) -> dict[int, View]:
        return {v.process: v for v in self.views}

    def __getitem__(self, process: int) -> View:
        return self.by_process[process]

    @cached_property
    def _processes(self) -> tuple[int, ...]:
        return tuple(v.process for v in self.views)

    def processes(self) -> tuple[int, ...]:
        """The views' processes, in view order, built once per set."""
        return self._processes

    def replace(self, view: View) -> "ViewSet":
        """The set with `view` in place of its process's view, or added
        when the set has none; a replaced view keeps its place, so the
        views stay in process order without a sort."""
        views = self.views
        for k, v in enumerate(views):
            if v.process == view.process:
                return ViewSet._ordered(views[:k] + (view,) + views[k + 1 :])
        return ViewSet.of(views + (view,))

    def sort_key(self) -> tuple:
        return tuple(v.sequence for v in self.views)


@dataclass(frozen=True)
class Violation:
    kind: str
    message: str
    process: int | None = None
    variable: str | None = None
    edge: Pair | None = None

    def __str__(self) -> str:
        return self.message


def _universe_mismatch(view: View) -> UniverseMismatch:
    return UniverseMismatch(
        f"view of process {view.process} must order exactly its own operations "
        f"plus all writes; got {list(view.sequence)}"
    )


def order_rows(view: View, program: Program) -> list[int]:
    """The view's total order as rows over the program index: row k holds
    the operations the view places after operation k, and is 0 for
    operations outside the view.  Raises `UniverseMismatch` unless the view
    orders exactly its process's own operations plus all writes."""
    expected = program.process_index(view.process)
    index = program.index
    rows = [0] * len(index)
    after = 0
    try:
        for o in reversed(view.sequence):
            k = index[o]
            rows[k] = after
            after |= 1 << k
    except KeyError:
        raise _universe_mismatch(view) from None
    # equal masks and lengths leave no room for a repeated operation
    if after != expected.universe_mask or len(view.sequence) != len(expected.universe):
        raise _universe_mismatch(view)
    return rows


def sequence_rows(seq: tuple[int, ...], size: int) -> list[int]:
    """The order rows, over an index of `size` positions, of the total
    order that lists the positions `seq` left to right; unchecked, for
    sequences a search placed over a known universe."""
    rows = [0] * size
    after = 0
    for k in reversed(seq):
        rows[k] = after
        after |= 1 << k
    return rows


def check_universe(view: View, program: Program) -> None:
    order_rows(view, program)


def check_complete(views: ViewSet, program: Program) -> None:
    """Raises `UniverseMismatch` for a view set without a view of each of
    the program's processes."""
    if views.processes() != program.processes:
        missing = sorted(set(program.processes) - set(views.processes()))
        if missing:
            raise UniverseMismatch(f"view set has no view of process {missing[0]}")


def data_race_order(view: View, program: Program) -> Relation:
    """Per-variable suborders of the view, unioned: disjoint closed chains."""
    chains: dict[str, list[str]] = {}
    for o in view.sequence:
        chains.setdefault(program.var_of(o), []).append(o)
    pairs = set()
    for ids in chains.values():
        for i, a in enumerate(ids):
            for b in ids[i + 1 :]:
                pairs.add((a, b))
    return Relation(tuple(view.sequence), frozenset(pairs))


def data_race_rows(view: View, program: Program) -> list[int]:
    """`data_race_order` as rows over the program index.  Raises
    `UniverseMismatch` like `order_rows`."""
    masks = program.variable_masks
    return [row & masks[k] for k, row in enumerate(order_rows(view, program))]


def validate_view(view: View, execution: Execution) -> Violation | None:
    """Read-validity: each read of the view's owner returns the last
    preceding same-variable write, or the initial value if unmapped."""
    check_universe(view, execution.program)
    return read_violation(view, execution)


def read_sources(view: View, program: Program) -> Iterator[tuple[str, str | None]]:
    """Each read of the view's owner, in view order, with the write it
    returns there: the last preceding same-variable write, or None for
    the initial value."""
    ops = program.ops
    last_write: dict[str, str] = {}
    for o in view.sequence:
        op = ops[o]
        if op.kind == WRITE:
            last_write[op.variable] = o
        elif op.process == view.process:
            yield o, last_write.get(op.variable)


def read_violation(view: View, execution: Execution) -> Violation | None:
    """`validate_view` for a view whose universe is already checked."""
    program = execution.program
    for o, actual in read_sources(view, program):
        expected = execution.writes_to.get(o)
        if expected != actual:
            variable = program.var_of(o)
            want = expected if expected is not None else "the initial value"
            got = actual if actual is not None else "the initial value"
            return Violation(
                kind="read-validity",
                process=view.process,
                variable=variable,
                edge=(actual or "", o) if actual else None,
                message=(
                    f"read {o} on {variable} must return {want} "
                    f"but view of process {view.process} makes it return {got}"
                ),
            )
    return None


def derive_writes_to(views: ViewSet, program: Program) -> Execution:
    """The execution a view set explains: each read maps to the last
    same-variable write preceding it in its owner's view."""
    writes_to = {
        read: source
        for view in views.views
        for read, source in read_sources(view, program)
        if source is not None
    }
    return Execution(program, writes_to)


def write_read_write_rows(program: Program, writes_to) -> list[int]:
    """WO as rows over the program index, from (read, write) source pairs:
    row w1 holds every other write that follows, in program order, a read
    of w1."""
    index = program.index
    po = program.po_rows
    writes = program.writes_mask
    rows = [0] * len(index)
    for read, w1 in writes_to:
        k = index[w1]
        rows[k] |= po[index[read]] & writes & ~(1 << k)
    return rows


def write_read_write_order(execution: Execution) -> Relation:
    """WO: (w1, w2) whenever some read of w1 precedes the write w2 in
    program order.  Raw pairs; callers close together with PO."""
    program = execution.program
    rows = write_read_write_rows(program, execution.writes_to.items())
    return Relation(program.writes, program.pairs_of(rows))
