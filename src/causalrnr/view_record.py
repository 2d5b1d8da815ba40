"""Records that make replays reproduce every view exactly.

Under this fidelity model a record may save any view edges, and a replay
is only valid if the certifying views equal the originals.  The minimal
offline record keeps, per process, the reduction edges of its view that
are not already guaranteed: program order, strong causal order enforced
by another writer, and orderings a third process also holds (reversing
those would force the third process to contradict its own record).

The offline record runs on bitmask rows over the program index: each
view's order rows, which the view set keeps (`ViewSet.order_rows`), and
the strong causal order of the strong causality check that guards the
record, and one helper gives, per process, the rows of the three
guaranteed parts.
`required_edges` reads one view's record edges off those rows:
`minimal_view_record` maps it over every view, and the one-shot view
necessity witness applies it to its edge's owner alone, so a required
edge has one definition.  `guaranteed_rows` builds the SCO once for a
view set and applies the same helper to every process, as the fuzz
battery does; `sco_from_others` and `indirectly_enforced` are
`Relation` views of one process's part, so membership has one
definition.

The online recorder sees operations one at a time and cannot decide the
third-party case, so it keeps those edges: its record per process is the
view reduction minus program order and foreign strong causal order only.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from causalrnr.consistency import _strong_causal_check, sco_rows
from causalrnr.errors import MalformedStream, NotStronglyCausal
from causalrnr.model import Execution, Program, View, ViewSet, write_read_write_order
from causalrnr.records import Record
from causalrnr.relations import Pair, Relation

Event = tuple[int, str]


def _guaranteed(
    program: Program, orders: dict[int, list[int]], sco: list[int], process: int
) -> tuple[list[int], list[int], list[int]]:
    """The orderings a replay keeps for `process` without a record edge,
    as rows over the program index: its program order, the strong causal
    order `sco` with its own writes masked out (the part other writers
    enforce), and the indirectly enforced pairs.  A pair (a, b) of its own
    write a and a write b is indirectly enforced iff its view orders it
    and the view of some k other than `process` does too while b is not
    k's own write; b is the write of some j, so k is neither `process`
    nor j, and reversing the pair would make k contradict its record."""
    pi = program.process_index(process)
    own = pi.own_writes_mask
    foreign_sco = [row & ~own for row in sco]
    indirect = [0] * len(sco)
    mine = orders[process]
    for a in program.write_positions:
        if not own >> a & 1:
            continue
        third = 0
        for k, order in orders.items():
            if k != process:
                third |= order[a] & ~program.process_index(k).own_writes_mask
        indirect[a] = mine[a] & program.writes_mask & ~own & third
    return pi.po_rows, foreign_sco, indirect


def guaranteed_rows(
    views: ViewSet, program: Program
) -> tuple[list[int], dict[int, tuple[list[int], list[int], list[int]]]]:
    """The strong causal order of the views, and per process the
    orderings a replay keeps without a record edge (program order,
    foreign SCO and indirectly enforced pairs, `_guaranteed`), all as
    rows over the program index, from the views' order rows.
    `sco_from_others` and `indirectly_enforced` read one process's
    part; for every process of one view set, call this once."""
    orders = dict(zip(views.processes(), views.order_rows(program)))
    sco = sco_rows(program, orders.items())
    return sco, {i: _guaranteed(program, orders, sco, i) for i in orders}


def _guaranteed_in(views: ViewSet, program: Program, process: int):
    program.process_index(process)  # an unknown process raises ValueError
    return guaranteed_rows(views, program)[1][process]


def sco_from_others(views: ViewSet, program: Program, process: int) -> Relation:
    """Strong causal order restricted to pairs whose later write belongs
    to some other process: the part the consistency model replays for free."""
    _, foreign_sco, _ = _guaranteed_in(views, program, process)
    return Relation(program.writes, program.pairs_of(foreign_sco))


def indirectly_enforced(views: ViewSet, program: Program, process: int) -> Relation:
    """Pairs (own write, foreign write) ordered the same way by a third
    process; recording them is redundant because reversing one would force
    the third process to violate its record."""
    _, _, indirect = _guaranteed_in(views, program, process)
    return Relation(program.writes, program.pairs_of(indirect))


def required_edges(
    program: Program, orders: dict[int, list[int]], sco: list[int], view: View
) -> frozenset[Pair]:
    """The edges of `view` that its minimal view record keeps: its
    reduction pairs (consecutive operations) that its process's
    guaranteed rows (`_guaranteed`) do not hold, given every view's
    order rows `orders` and their SCO `sco`."""
    index = program.index
    drop = [p | s | d for p, s, d in zip(*_guaranteed(program, orders, sco, view.process))]
    return frozenset(
        (a, b) for a, b in view.reduction_pairs() if not drop[index[a]] >> index[b] & 1
    )


def minimal_view_record(views: ViewSet, execution: Execution) -> Record:
    """The good record with the fewest edges: per process, the view
    reduction minus program order, foreign strong causal order and
    indirectly enforced pairs (`required_edges`)."""
    bad, sco = _strong_causal_check(views, execution)
    if bad is not None:
        raise NotStronglyCausal(str(bad))
    program = execution.program
    orders = dict(zip(views.processes(), views.order_rows(program)))
    return Record.of(
        {view.process: required_edges(program, orders, sco, view) for view in views.views}
    )


def naive_causal_view_record(views: ViewSet, execution: Execution) -> Record:
    """The scheme that drops write-read-write order and program order from
    each view reduction.  Not good under causal consistency; kept as the
    reference counterexample construction."""
    program = execution.program
    wo = write_read_write_order(execution)
    drop = set(program.po_pairs) | set(wo.pairs)
    out = {}
    for view in views.views:
        out[view.process] = frozenset(
            e for e in view.reduction_pairs() if e not in drop
        )
    return Record.of(out)


def observation_stream(views: ViewSet) -> tuple[Event, ...]:
    """A global, timestamp-ordered stream whose per-process subsequences
    enumerate the views in order, interleaved round-robin."""
    cursors = {v.process: 0 for v in views.views}
    events: list[Event] = []
    remaining = sum(len(v.sequence) for v in views.views)
    while remaining:
        for view in views.views:
            c = cursors[view.process]
            if c < len(view.sequence):
                events.append((view.process, view.sequence[c]))
                cursors[view.process] = c + 1
                remaining -= 1
    return tuple(events)


def online_view_record(
    stream: Sequence[Event], sco: Relation, program: Program
) -> Record:
    """Fold the stream into a record: when process i observes o2 after o1,
    the pair is kept unless program order guarantees it or, for a foreign
    o2, strong causal order does.

    `sco` is the strong causal order of the full execution; the recorder
    may query it but never looks inside the shared memory.
    """
    po = program.po_pairs
    views_so_far: dict[int, list[str]] = {p: [] for p in program.processes}
    seen: dict[int, set[str]] = {p: set() for p in program.processes}
    recorded: dict[int, set[Pair]] = {p: set() for p in program.processes}
    for event in stream:
        try:
            i, o2 = event
        except (TypeError, ValueError):
            raise MalformedStream(f"event {event!r} is not (process, operation)")
        if i not in views_so_far:
            raise MalformedStream(f"unknown process {i}")
        if o2 not in program.ops:
            raise MalformedStream(f"unknown operation {o2}")
        op = program.ops[o2]
        if op.process != i and op.kind != "w":
            raise MalformedStream(
                f"process {i} cannot observe foreign read {o2}"
            )
        if o2 in seen[i]:
            raise MalformedStream(f"process {i} observed {o2} twice")
        seen[i].add(o2)
        trace = views_so_far[i]
        if trace:
            o1 = trace[-1]
            edge = (o1, o2)
            guaranteed = edge in po or (op.process != i and edge in sco.pairs)
            if not guaranteed:
                recorded[i].add(edge)
        trace.append(o2)
    return Record.of({p: frozenset(recorded[p]) for p in program.processes})


def online_record_from_views(views: ViewSet, execution: Execution) -> Record:
    """Convenience wrapper: record the round-robin stream of the views."""
    bad, sco = _strong_causal_check(views, execution)
    if bad is not None:
        raise NotStronglyCausal(str(bad))
    program = execution.program
    relation = Relation(program.writes, program.pairs_of(sco))
    return online_view_record(observation_stream(views), relation, program)
