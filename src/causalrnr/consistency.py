"""Checkers for causal, strong causal and cache consistency.

Causal consistency asks each view to respect the write-read-write order
closed with program order.  Strong causal consistency replaces WO with
the strong causal order SCO, which orders two writes as soon as the later
write's own process observed them in that order; SCO is a function of the
given view set, so the checker evaluates it once and requires every view
to respect it.

`find_explanation` is the existential form: an exhaustive search for any
view set that explains the execution under the model, pruned while
placing by the same engine as the oracle (`search.iter_extensions`).  Two
helpers turn constraints into placement-time predecessors and vetoes:
`read_validity` (shared with `check_cache`) and `sco_vetoes` (shared with
the oracle's strong-model descent).
"""

from __future__ import annotations

import os

from causalrnr import kernels
from causalrnr.errors import BudgetExceeded
from causalrnr.model import (
    Execution,
    Program,
    View,
    ViewSet,
    Violation,
    order_rows,
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
    returned.  Each process's view is placed under program order, read
    validity and a base order: WO under the causal model; under the
    strong model the SCO of the views already fixed, which also vetoes
    the own writes that would contradict them.

    A completed view set explains the execution by construction, so it
    is not checked again: `read_validity` places each read after its
    source and vetoes every other write to its variable in between; under
    the causal model every view respects WO and its program order, whose
    closure the predecessors hold; under the strong model every view
    respects the earlier views' SCO through the base, the SCO vetoes keep
    the earlier views respecting its own, and it respects its own SCO by
    construction.
    """
    if model not in (CAUSAL, STRONG_CAUSAL):
        raise ValueError(f"find_explanation supports causal/strong_causal, not {model}")
    program = execution.program
    cap = enumeration_cap(max_ops)
    if len(program.all_ops) > cap:
        raise BudgetExceeded(
            f"{len(program.all_ops)} operations exceed the cap of {cap}"
        )
    budget = NodeBudget(node_budget)
    procs = tuple(sorted(program.processes))
    ids = program.all_ops
    index = program.index
    validity = {
        i: read_validity(
            program,
            execution.writes_to,
            [index[o] for o in program.own(i) if not program.is_write(o)],
        )
        for i in procs
    }

    def descend(fixed: list[View], orders: list[list[int]], base: list[int]) -> ViewSet | None:
        if len(fixed) == len(procs):
            return ViewSet.of(fixed)
        i = procs[len(fixed)]
        pi = program.process_index(i)
        rows, vetoes = validity[i]
        preds = predecessors([b | p | r for b, p, r in zip(base, pi.po_rows, rows)])
        if preds is None:
            return None
        if model == STRONG_CAUSAL and orders:
            vetoes = [r + s for r, s in zip(vetoes, sco_vetoes(program, i, orders))]
        for seq in iter_extensions(pi.positions, preds, vetoes, budget):
            view = View(i, tuple(ids[k] for k in seq))
            if model == STRONG_CAUSAL:
                order = sequence_rows(seq, len(ids))
                own = sco_rows(program, [(i, order)])
                found = descend(
                    fixed + [view], orders + [order], [b | o for b, o in zip(base, own)]
                )
            else:
                found = descend(fixed + [view], orders, base)
            if found is not None:
                return found
        return None

    if model == CAUSAL:
        return descend([], [], write_read_write_rows(program, execution.writes_to.items()))
    return descend([], [], [0] * len(ids))


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
