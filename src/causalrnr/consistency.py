"""Checkers for causal, strong causal and cache consistency.

Causal consistency asks each view to respect the write-read-write order
closed with program order.  Strong causal consistency replaces WO with
the strong causal order SCO, which orders two writes as soon as the later
write's own process observed them in that order; SCO is a function of the
given view set, so the checker evaluates it once and requires every view
to respect it.

`find_explanation` is the existential form: an exhaustive, pruned search
for any view set that explains the execution under the model.
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
    WRITE,
    order_rows,
    read_violation,
    write_read_write_order,
    write_read_write_rows,
)
from causalrnr.relations import Relation, has_cycle, union_closed
from causalrnr.search import NodeBudget, iter_extensions, preds_from_pairs

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


def _read_validity_hook(program: Program, writes_to, process: int):
    """Prune placements that give a read of `process` the wrong source."""

    def hook(o: str, placed: list[str]) -> bool:
        op = program.ops[o]
        if op.kind == WRITE or op.process != process:
            return True
        expected = writes_to.get(o)
        actual = None
        for q in reversed(placed):
            other = program.ops[q]
            if other.kind == WRITE and other.variable == op.variable:
                actual = q
                break
        return actual == expected

    return hook


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
    returned.
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
    wo = write_read_write_order(execution) if model == CAUSAL else None

    def descend(idx: int, fixed: list[View], sco_pairs: frozenset) -> ViewSet | None:
        if idx == len(procs):
            candidate = ViewSet.of(fixed)
            check = check_causal if model == CAUSAL else check_strong_causal
            return candidate if check(candidate, execution) is None else None
        i = procs[idx]
        universe = program.universe_of(i)
        base = wo.pairs if model == CAUSAL else sco_pairs
        required = union_closed(
            Relation(program.writes, base),
            Relation(universe, program.process_index(i).po_pairs),
        )
        if has_cycle(required):
            return None
        preds = preds_from_pairs(universe, required.pairs)
        hook = _read_validity_hook(program, execution.writes_to, i)
        for seq in iter_extensions(universe, preds, hook, budget):
            view = View(i, seq)
            if model == STRONG_CAUSAL:
                new_sco = _own_write_orderings(program, view)
                if not _respected_by_all(fixed, new_sco):
                    continue
                found = descend(idx + 1, fixed + [view], sco_pairs | new_sco)
            else:
                found = descend(idx + 1, fixed + [view], sco_pairs)
            if found is not None:
                return found
        return None

    return descend(0, [], frozenset())


def _own_write_orderings(program: Program, view: View) -> frozenset:
    """SCO edges contributed by one view: write pairs ending at its owner's
    writes, in view order."""
    return program.pairs_of(
        sco_rows(program, [(view.process, order_rows(view, program))])
    )


def _respected_by_all(fixed: list[View], pairs) -> bool:
    for view in fixed:
        pos = view.positions
        for a, b in pairs:
            if pos[a] > pos[b]:
                return False
    return True


def check_cache(
    execution: Execution, *, node_budget: int | None = DEFAULT_NODE_BUDGET
) -> Violation | None:
    """Per-variable sequential consistency: for every variable there must
    be a total order of its operations respecting program order in which
    every read returns the last preceding write."""
    program = execution.program
    budget = NodeBudget(node_budget)
    for x in program.variables:
        ops_x = tuple(o for o in program.all_ops if program.var_of(o) == x)
        preds = preds_from_pairs(ops_x, program.po_restricted(ops_x))

        def hook(o: str, placed: list[str], _x=x) -> bool:
            op = program.ops[o]
            if op.kind == WRITE:
                return True
            expected = execution.writes_to.get(o)
            actual = None
            for q in reversed(placed):
                if program.is_write(q):
                    actual = q
                    break
            return actual == expected

        witness = next(iter_extensions(ops_x, preds, hook, budget), None)
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
