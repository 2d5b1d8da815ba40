"""Checkers for causal, strong causal and cache consistency.

Causal consistency asks each view to respect the write-read-write order
closed with program order.  Strong causal consistency replaces WO with
the strong causal order SCO, which orders two writes as soon as the later
write's own process observed them in that order; SCO is a function of the
given view set, so the checker evaluates it once and requires every view
to respect it.

`iter_view_sets` is the package's one view-set descent: it places one
view per process with `search.iter_extensions`, pruned while placing, and
yields every view set over the closed base rows its caller gives that
respects the model.  The oracle enumerates a record's certifying replays
with it, each read returning what the views make it return;
`find_explanation`, the existential form of the checkers, takes its
first set with the execution's reads given.  Two helpers turn
constraints into placement-time predecessors and vetoes: `read_validity`
(shared with `check_cache`) and `sco_vetoes`.
"""

from __future__ import annotations

import os
from typing import Iterator, Mapping, Sequence

from causalrnr import kernels
from causalrnr.errors import BudgetExceeded
from causalrnr.model import (
    Execution,
    Program,
    View,
    ViewSet,
    Violation,
    order_rows,
    read_sources,
    read_violation,
    sequence_rows,
    write_read_write_rows,
)
from causalrnr.relations import Relation
from causalrnr.search import NodeBudget, Veto, iter_extensions, predecessors

CAUSAL = "causal"
STRONG_CAUSAL = "strong_causal"
CACHE = "cache"
MODELS = (CAUSAL, STRONG_CAUSAL, CACHE)

DEFAULT_MAX_OPS = 10
MAX_OPS_ENV = "CAUSAL_RNR_MAX_OPS"
DEFAULT_NODE_BUDGET = 5_000_000


def enumeration_cap(max_ops: int | None = None) -> int:
    if max_ops is not None:
        return max_ops
    env = os.environ.get(MAX_OPS_ENV)
    return int(env) if env else DEFAULT_MAX_OPS


def sco_rows(program: Program, orders) -> list[int]:
    """SCO as rows over the program index, from (process, order rows)
    pairs of views: row a holds each owner's writes that its view places
    after the write a."""
    rows = [0] * len(program.all_ops)
    positions = program.write_positions
    for process, order in orders:
        own_writes = program.process_index(process).own_writes_mask
        for k in positions:
            rows[k] |= order[k] & own_writes
    return rows


def strong_causal_order(views: ViewSet, program: Program) -> Relation:
    """SCO: (w1, w2) for writes ordered w1 before w2 by the view of w2's
    own process.  Raw membership; no closure beyond it."""
    orders = [(v.process, order_rows(v, program)) for v in views.views]
    return Relation(program.writes, program.pairs_of(sco_rows(program, orders)))


def _check_against(
    views: ViewSet, execution: Execution, orders: list[list[int]], base: list[int]
) -> Violation | None:
    """The first violation of `views` (with `orders` their order rows)
    against the base order `base` closed with each view's program order.
    Order violations name the least violated pair in sorted id order."""
    program = execution.program
    for view in views.views:
        bad = read_violation(view, execution)
        if bad is not None:
            return bad
    ids = program.all_ops
    for view, order in zip(views.views, orders):
        po = program.process_index(view.process).po_rows
        # a total order respects a relation iff it respects its closure, so
        # the closure is built only to name the first violated pair
        if not any((b | p) & ~o for b, p, o in zip(base, po, order)):
            continue
        closed = kernels.closure_rows([b | p for b, p in zip(base, po)])
        for k, (row, o) in enumerate(zip(closed, order)):
            wrong = row & ~o & ~(1 << k)
            if wrong:
                a, b = ids[k], ids[(wrong & -wrong).bit_length() - 1]
                return Violation(
                    kind="order",
                    process=view.process,
                    edge=(a, b),
                    message=(
                        f"view of process {view.process} must order {a} before {b} "
                        f"but orders them the other way"
                    ),
                )
    return None


def check_causal(views: ViewSet, execution: Execution) -> Violation | None:
    program = execution.program
    orders = [order_rows(v, program) for v in views.views]
    wo = write_read_write_rows(program, execution.writes_to.items())
    return _check_against(views, execution, orders, wo)


def check_strong_causal(views: ViewSet, execution: Execution) -> Violation | None:
    program = execution.program
    orders = [order_rows(v, program) for v in views.views]
    sco = sco_rows(program, zip(views.processes(), orders))
    return _check_against(views, execution, orders, sco)


def read_validity(
    program: Program, writes_to, reads
) -> tuple[list[int], list[tuple[Veto, ...]]]:
    """Read validity of the reads at positions `reads` as placement
    constraints over the program index: successor rows and vetoes under
    which each read is placed with its source as the last placed write to
    its variable, or with none placed if it read the initial value.

    A read's source goes before it, and every other write to the variable
    is vetoed while the source is placed and the read is not; a read of
    the initial value goes before every write to its variable."""
    ids = program.all_ops
    index = program.index
    masks = program.variable_masks
    rows = [0] * len(ids)
    vetoes: list[tuple[Veto, ...]] = [()] * len(ids)
    for r in reads:
        source = writes_to.get(ids[r])
        same = [w for w in program.write_positions if masks[r] >> w & 1]
        if source is None:
            rows[r] |= sum(1 << w for w in same)
            continue
        s = index[source]
        rows[s] |= 1 << r
        veto = (1 << s, 1 << r)
        for w in same:
            if w != s:
                vetoes[w] += (veto,)
    return rows, vetoes


def sco_vetoes(program: Program, process: int, orders) -> list[tuple[Veto, ...]]:
    """Strong causal order as vetoes on the view of `process`, given the
    order rows of fixed views: an own write b is vetoed while any write
    that some fixed view orders after b is placed, since placing b then
    would add an SCO edge that view contradicts."""
    vetoes: list[tuple[Veto, ...]] = [()] * len(program.all_ops)
    own = program.process_index(process).own_writes_mask
    for b in program.write_positions:
        if own >> b & 1:
            later = 0
            for order in orders:
                later |= order[b]
            later &= program.writes_mask
            if later:
                vetoes[b] = ((later, 0),)
    return vetoes


def _wo_contribution(program: Program, view: View) -> list[int]:
    """The write-read-write edges a view forces on every other view of a
    causal replay, from its own reads' sources, as rows over the program
    index."""
    sources = [(r, s) for r, s in read_sources(view, program) if s is not None]
    return write_read_write_rows(program, sources)


def _respects(order: list[int], contribution: list[int]) -> bool:
    return not any(c & ~o for c, o in zip(contribution, order))


Leaf = tuple[list[View], list[list[int]]]


def iter_view_sets(
    program: Program,
    model: str,
    base: Mapping[int, list[int]],
    budget: NodeBudget,
    *,
    reads_given: bool,
    vetoes: Mapping[int, Sequence[tuple[Veto, ...]]] | None = None,
) -> Iterator[Leaf]:
    """Every view set, one view per process, that extends each process's
    closed `base` rows and respects the model's order, in lexicographic
    order of the per-process sequences.  Each set is yielded as its views
    in process order with the order rows of all but the last; under the
    causal model with reads given, no view's order rows are needed and
    the list is empty.

    `reads_given` says whether the caller fixed the source of every read.
    If so, the caller closed each process's read validity (`read_validity`)
    into its base and passes read validity's vetoes in `vetoes`, and
    under the causal model it closed WO into every base too.  If not, each
    read returns what its owner's view makes it return, and the causal
    model's WO is derived from each view as it is placed.

    The views are placed process by process with `search.iter_extensions`,
    each under its process's base plus the orderings that the views placed
    before it force (`predecessors(forced, onto=base[i])`).  Each yielded
    set is a replay by construction, so no caller checks it again
    (`oracle.certifies` and the checkers test exactly these conditions):

    * base: every view is placed under it, so it respects program order
      and whatever the caller closed in (record edges, read validity, WO);
    * read validity, reads given: each read is placed after its source,
      and the vetoes stop every other write to its variable in between;
    * read validity, reads not given: the execution a set explains is the
      one its views derive (`derive_writes_to`), whose reads return by
      definition the last preceding write in their owner's view;
    * causal model, reads not given: each new view is placed under
      `forced`, so it respects the earlier views' WO contributions, and
      `_respects` keeps it only if every earlier view respects its own;
    * strong model: each new view respects the earlier views' SCO
      contributions through `forced`, and the SCO vetoes stop it from
      adding an SCO edge that an earlier view contradicts;
    * each view respects its own contribution: a WO edge runs from a
      read's source, which the view places before the read, to a write
      that follows the read in program order; an SCO edge is a pair of
      writes in the order the view itself places them;
    * closure: a total order respects a relation iff it respects the
      relation's closure, so respecting every contribution and the
      closed base is respecting the model's whole order.

    Nothing is placed after the last view, so it needs no order rows,
    and under the strong model no contribution either."""
    procs = tuple(sorted(program.processes))
    if not procs:
        yield [], []
        return
    ids = program.all_ops
    strong = model == STRONG_CAUSAL
    # whether each view forces orderings on the views placed after it
    contributes = strong or not reads_given

    def extend(fixed: list[View], orders: list[list[int]], forced: list[int]) -> Iterator[Leaf]:
        i = procs[len(fixed)]
        preds = predecessors(forced, onto=base[i])
        if preds is None:
            return
        placing = vetoes[i] if vetoes is not None else None
        if strong and orders:
            sco = sco_vetoes(program, i, orders)
            placing = sco if placing is None else [v + s for v, s in zip(placing, sco)]
        last = len(fixed) == len(procs) - 1
        positions = program.process_index(i).positions
        for seq in iter_extensions(positions, preds, placing, budget):
            view = View(i, tuple(ids[k] for k in seq))
            if contributes and not strong:
                contribution = _wo_contribution(program, view)
                if not all(_respects(o, contribution) for o in orders):
                    continue
            if last:
                yield fixed + [view], orders
            elif not contributes:
                yield from extend(fixed + [view], orders, forced)
            else:
                order = sequence_rows(seq, len(ids))
                if strong:
                    contribution = sco_rows(program, [(i, order)])
                yield from extend(
                    fixed + [view],
                    orders + [order],
                    [f | c for f, c in zip(forced, contribution)],
                )

    yield from extend([], [], [0] * len(ids))


def find_explanation(
    execution: Execution,
    model: str,
    *,
    max_ops: int | None = None,
    node_budget: int | None = DEFAULT_NODE_BUDGET,
) -> ViewSet | None:
    """Search for a view set explaining the execution under the model.

    Exhaustive on the configured budget: `None` means no explaining view
    set exists.  Deterministic: the lexicographically least witness is
    returned.  An explanation is a replay of the empty record whose reads
    are the given ones, so this is the first set `iter_view_sets` yields
    with the reads given: program order, read validity and, under the
    causal model, WO are closed into each process's base once, and read
    validity's vetoes are passed along.
    """
    if model not in (CAUSAL, STRONG_CAUSAL):
        raise ValueError(f"find_explanation supports causal/strong_causal, not {model}")
    program = execution.program
    cap = enumeration_cap(max_ops)
    if len(program.all_ops) > cap:
        raise BudgetExceeded(
            f"{len(program.all_ops)} operations exceed the cap of {cap}"
        )
    index = program.index
    if model == CAUSAL:
        wo = write_read_write_rows(program, execution.writes_to.items())
    else:
        wo = [0] * len(program.all_ops)
    base, vetoes = {}, {}
    for i in sorted(program.processes):
        reads = [index[o] for o in program.own(i) if not program.is_write(o)]
        rows, vetoes[i] = read_validity(program, execution.writes_to, reads)
        po = program.process_index(i).po_rows
        base[i] = kernels.closure_rows([p | r | w for p, r, w in zip(po, rows, wo)])
    leaves = iter_view_sets(
        program, model, base, NodeBudget(node_budget), reads_given=True, vetoes=vetoes
    )
    found = next(leaves, None)
    return None if found is None else ViewSet.of(found[0])


def check_cache(
    execution: Execution, *, node_budget: int | None = DEFAULT_NODE_BUDGET
) -> Violation | None:
    """Per-variable sequential consistency: for every variable there must
    be a total order of its operations respecting program order in which
    every read returns the last preceding write."""
    program = execution.program
    budget = NodeBudget(node_budget)
    masks = program.variable_masks
    for x in program.variables:
        positions = tuple(
            k for k, o in enumerate(program.all_ops) if program.var_of(o) == x
        )
        mask = masks[positions[0]]
        reads = [k for k in positions if not program.writes_mask >> k & 1]
        rows, vetoes = read_validity(program, execution.writes_to, reads)
        po = [p & mask if mask >> k & 1 else 0 for k, p in enumerate(program.po_rows)]
        preds = predecessors([p | r for p, r in zip(po, rows)])
        witness = None
        if preds is not None:
            witness = next(iter_extensions(positions, preds, vetoes, budget), None)
        if witness is None:
            return Violation(
                kind="cache",
                variable=x,
                message=(
                    f"no total order of the operations on {x} respects program "
                    f"order and the recorded read values"
                ),
            )
    return None
