"""Brute-force ground truth for record goodness.

`enumerate_certifying` walks every set of replay views that extends a
record under a consistency model, pruned while placing: program order,
record edges and orderings already forced by fixed views are
predecessor masks; under the strong model, SCO vetoes stop own writes
that would contradict a fixed view, and under the causal model a view
whose write-read-write edges a fixed view contradicts is dropped.  Every
set the descent completes certifies by construction (`_extend` gives
the argument), so no candidate is checked again; `certifies` remains
the whole-set check for given views.  The goodness verdicts reduce to
this enumeration, so they are independent of the record constructions
they judge.

`extend_to_views` and the two necessity witnesses are the constructive
side: they build, from a record with one edge dropped, a certifying view
set that provably differs from the original.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Mapping

from causalrnr import kernels
from causalrnr.consistency import (
    CAUSAL,
    STRONG_CAUSAL,
    check_causal,
    check_strong_causal,
    enumeration_cap,
    sco_rows,
    sco_vetoes,
)
from causalrnr.errors import (
    BudgetExceeded,
    InternalInvariant,
    NotStronglyCausal,
    PreconditionViolated,
)
from causalrnr.model import (
    Execution,
    Program,
    READ,
    View,
    ViewSet,
    WRITE,
    data_race_rows,
    derive_writes_to,
    order_rows,
    sequence_rows,
    write_read_write_rows,
)
from causalrnr.race_record import RaceAnalysis
from causalrnr.records import Record
from causalrnr.relations import Pair, Relation, transitive_closure
from causalrnr.search import NodeBudget, iter_extensions, predecessors
from causalrnr.view_record import minimal_view_record

DEFAULT_NODE_BUDGET = 20_000_000


@dataclass(frozen=True)
class Verdict:
    good: bool
    counterexample: ViewSet | None
    original_certifies: bool
    enumerated: int


def certifies(candidate: ViewSet, program: Program, record: Record, model: str) -> bool:
    """Whether `candidate` certifies a replay: it extends the record and
    explains its own derived execution under the model."""
    if model not in (CAUSAL, STRONG_CAUSAL):
        raise ValueError(f"unsupported replay model {model!r}")
    for i in sorted(program.processes):
        view = candidate[i]
        for a, b in record.edges(i):
            pos = view.positions
            if a not in pos or b not in pos:
                raise ValueError(f"record edge ({a}, {b}) escapes process {i}'s view")
            if pos[a] > pos[b]:
                return False
    derived = derive_writes_to(candidate, program)
    check = check_causal if model == CAUSAL else check_strong_causal
    return check(candidate, derived) is None


def _wo_contribution(program: Program, view: View) -> list[int]:
    """The write-read-write edges a fixed view forces on every other view
    of a causal replay, from its own reads' sources, as rows over the
    program index."""
    sources = []
    last_write: dict[str, str] = {}
    for o in view.sequence:
        op = program.ops[o]
        if op.kind == WRITE:
            last_write[op.variable] = o
        elif op.process == view.process:
            source = last_write.get(op.variable)
            if source is not None:
                sources.append((o, source))
    return write_read_write_rows(program, sources)


def _respects(order: list[int], contribution: list[int]) -> bool:
    return not any(c & ~o for c, o in zip(contribution, order))


def _base_rows(program: Program, record: Record) -> dict[int, list[int]] | None:
    """Per process, program order plus its record edges, validated and
    closed once per query, as rows over the program index; None when some
    process's record is cyclic, so that no replay extends it."""
    base = {}
    cyclic = False
    for i in sorted(program.processes):
        pairs = program.process_index(i).po_pairs | record.edges(i)
        try:
            closed = transitive_closure(Relation(program.universe_of(i), pairs))
        except ValueError as exc:
            raise ValueError(f"record for process {i} is malformed: {exc}") from exc
        cyclic = cyclic or any((b, a) in closed.pairs for a, b in closed.pairs)
        base[i] = _rows_of(closed, program)
    return None if cyclic else base


Leaf = tuple[list[View], list[list[int]]]


def _descend(
    program: Program,
    model: str,
    base: dict[int, list[int]],
    prefix: list[View],
    budget: NodeBudget,
) -> Iterator[Leaf]:
    """The certifying completions of `prefix`, as `_extend` yields them."""
    procs = tuple(sorted(program.processes))
    orders = [order_rows(view, program) for view in prefix]
    if len(prefix) == len(procs):
        yield list(prefix), orders[:-1]
        return
    forced = [0] * len(program.all_ops)
    for view, order in zip(prefix, orders):
        if model == STRONG_CAUSAL:
            contribution = sco_rows(program, [(view.process, order)])
        else:
            contribution = _wo_contribution(program, view)
        forced = [f | c for f, c in zip(forced, contribution)]
    yield from _extend(program, model, procs, base, list(prefix), orders, forced, budget)


def _extend(
    program: Program,
    model: str,
    procs: tuple[int, ...],
    base: dict[int, list[int]],
    fixed: list[View],
    orders: list[list[int]],
    forced: list[int],
    budget: NodeBudget,
) -> Iterator[Leaf]:
    """Every view set certifying a replay that extends the fixed views,
    yielded as its views in process order with the order rows of all but
    the last.  `base` holds each process's closed program order and
    record edges, `orders` the fixed views' order rows and `forced` the
    union of their contributions.

    Each yielded set certifies by construction, so no leaf is checked
    again (`certifies` tests exactly these conditions):

    * record edges and program order: every view is placed under `base`,
      which `_base_rows` validated and closed;
    * read validity: the execution a replay explains is the one its views
      derive (`derive_writes_to`), whose reads return by definition the
      last preceding write in their owner's view;
    * causal model: each new view is placed under `forced`, so it
      respects the earlier views' WO contributions, and `_respects`
      keeps it only if every earlier view respects its own contribution;
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
    i = procs[len(fixed)]
    preds = predecessors([b | f for b, f in zip(base[i], forced)])
    if preds is None:
        return
    strong = model == STRONG_CAUSAL
    last = len(fixed) == len(procs) - 1
    vetoes = sco_vetoes(program, i, orders) if strong and orders else None
    ids = program.all_ops
    positions = program.process_index(i).positions
    for seq in iter_extensions(positions, preds, vetoes, budget):
        view = View(i, tuple(ids[k] for k in seq))
        if not strong:
            contribution = _wo_contribution(program, view)
            if not all(_respects(o, contribution) for o in orders):
                continue
        if last:
            yield fixed + [view], orders
            continue
        order = sequence_rows(seq, len(ids))
        if strong:
            contribution = sco_rows(program, [(i, order)])
        yield from _extend(
            program, model, procs, base,
            fixed + [view],
            orders + [order],
            [f | c for f, c in zip(forced, contribution)],
            budget,
        )


def enumerate_certifying(
    program: Program,
    record: Record,
    model: str,
    *,
    max_ops: int | None = None,
    node_budget: int | None = DEFAULT_NODE_BUDGET,
) -> Iterator[ViewSet]:
    """Every view set certifying a replay of the record, in lexicographic
    order of the per-process sequences."""
    if model not in (CAUSAL, STRONG_CAUSAL):
        raise ValueError(f"unsupported replay model {model!r}")
    cap = enumeration_cap(max_ops)
    if len(program.all_ops) > cap:
        raise BudgetExceeded(
            f"{len(program.all_ops)} operations exceed the enumeration cap of {cap}"
        )
    base = _base_rows(program, record)
    if base is None:
        return
    budget = NodeBudget(node_budget)
    for views, _ in _descend(program, model, base, [], budget):
        yield ViewSet.of(views)


def _find_counterexample(
    program: Program,
    model: str,
    base: dict[int, list[int]],
    differs,
    prefix: list[View],
    budget: NodeBudget,
) -> tuple[ViewSet | None, int]:
    seen = 0
    for views, orders in _descend(program, model, base, prefix, budget):
        seen += 1
        if differs(views, orders):
            return ViewSet.of(views), seen
    return None, seen


def _branch_views(
    program: Program, base: dict[int, list[int]], budget: NodeBudget
) -> list[View]:
    """Candidate views for the first process, used to split parallel work."""
    i = min(program.processes)
    preds = predecessors(base[i])
    if preds is None:
        return []
    ids = program.all_ops
    positions = program.process_index(i).positions
    return [
        View(i, tuple(ids[k] for k in seq))
        for seq in iter_extensions(positions, preds, None, budget)
    ]


def _worker(args) -> tuple[ViewSet | None, int]:
    program, model, base, kind, reference, prefix_seq, prefix_proc, node_budget = args
    differs = _difference_test(program, kind, reference)
    budget = NodeBudget(node_budget)
    prefix = [View(prefix_proc, prefix_seq)]
    return _find_counterexample(program, model, base, differs, prefix, budget)


def _difference_test(program: Program, kind: str, reference):
    """The test of whether a leaf of the descent differs from the original
    views: in their sequences, or in some process's data-race order, read
    off the descent's order rows (the last view's are built here)."""
    if kind == "views":
        return lambda views, orders: tuple(v.sequence for v in views) != reference
    original_dro: Mapping[int, list[int]] = reference
    masks = program.variable_masks

    def differs(views: list[View], orders: list[list[int]]) -> bool:
        rows = orders + [order_rows(view, program) for view in views[len(orders):]]
        return any(
            [row & mask for row, mask in zip(order, masks)] != original_dro[view.process]
            for view, order in zip(views, rows)
        )

    return differs


def _goodness(
    views: ViewSet,
    program: Program,
    record: Record,
    model: str,
    kind: str,
    *,
    max_ops: int | None,
    node_budget: int | None,
    jobs: int,
) -> Verdict:
    cap = enumeration_cap(max_ops)
    if len(program.all_ops) > cap:
        raise BudgetExceeded(
            f"{len(program.all_ops)} operations exceed the enumeration cap of {cap}"
        )
    base = _base_rows(program, record)
    original = certifies(views, program, record, model)
    if kind == "views":
        reference = views.sort_key()
    else:
        reference = {
            i: data_race_rows(views[i], program) for i in sorted(program.processes)
        }
    if base is None:
        return Verdict(True, None, original, 0)
    if jobs <= 1 or len(program.processes) == 0:
        differs = _difference_test(program, kind, reference)
        counterexample, seen = _find_counterexample(
            program, model, base, differs, [], NodeBudget(node_budget)
        )
        return Verdict(counterexample is None, counterexample, original, seen)

    import concurrent.futures

    branches = _branch_views(program, base, NodeBudget(node_budget))
    tasks = [
        (program, model, base, kind, reference, v.sequence, v.process, node_budget)
        for v in branches
    ]
    seen = 0
    counterexample = None
    with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as pool:
        for found, count in pool.map(_worker, tasks):
            seen += count
            if found is not None and counterexample is None:
                counterexample = found
    return Verdict(counterexample is None, counterexample, original, seen)


def is_good_view_record(
    views: ViewSet,
    program: Program,
    record: Record,
    model: str = STRONG_CAUSAL,
    *,
    max_ops: int | None = None,
    node_budget: int | None = DEFAULT_NODE_BUDGET,
    jobs: int = 1,
) -> Verdict:
    """Good iff every certifying replay view set equals the original views."""
    return _goodness(
        views, program, record, model, "views",
        max_ops=max_ops, node_budget=node_budget, jobs=jobs,
    )


def is_good_race_record(
    views: ViewSet,
    program: Program,
    record: Record,
    model: str = STRONG_CAUSAL,
    *,
    max_ops: int | None = None,
    node_budget: int | None = DEFAULT_NODE_BUDGET,
    jobs: int = 1,
) -> Verdict:
    """Good iff every certifying replay view set reproduces each process's
    data-race order."""
    return _goodness(
        views, program, record, model, "dro",
        max_ops=max_ops, node_budget=node_budget, jobs=jobs,
    )


# ---------------------------------------------------------------------------
# Constructive completions and necessity witnesses
# ---------------------------------------------------------------------------


def _rows_of(rel: Relation, program: Program) -> list[int]:
    index = program.index
    rows = [0] * len(index)
    for a, b in rel.pairs:
        rows[index[a]] |= 1 << index[b]
    return rows


def _cyclic(rows: list[int]) -> bool:
    """Whether a closed relation's rows hold a cycle: a self bit."""
    return any((row >> k) & 1 for k, row in enumerate(rows))


def _extended_sco(orders: Mapping[int, list[int]], program: Program) -> list[int]:
    """Strong causal order lifted to partial orders, as rows: pairs of
    writes each closed order holds that end at its own process's writes."""
    out = [0] * len(program.all_ops)
    for i, rows in orders.items():
        own = program.process_index(i).own_writes_mask
        for p in program.write_positions:
            out[p] |= rows[p] & own
    return out


def _adds_own_sco(before: list[int], after: list[int], program: Program, process: int) -> bool:
    """Whether `after` holds a write pair ending at an own write of
    `process` that `before` lacks."""
    own = program.process_index(process).own_writes_mask
    return any(after[p] & ~before[p] & own for p in program.write_positions)


def _related(rows: list[int], a: int, b: int) -> bool:
    return bool((rows[a] >> b | rows[b] >> a) & 1)


def _close_with(rows: list[int], a: int, b: int) -> list[int]:
    """The closure of a closed relation plus (a, b): every row that is a
    or reaches a gains b and everything b reaches."""
    gain = 1 << b | rows[b]
    return [r | gain if k == a or (r >> a) & 1 else r for k, r in enumerate(rows)]


def _sequence(rows: list[int], universe: tuple[str, ...], program: Program):
    """The listing of a closed total order, or None if `rows` is not one."""
    index = program.index
    order = sorted(universe, key=lambda o: -rows[index[o]].bit_count())
    after = 0
    for o in reversed(order):
        k = index[o]
        if rows[k] != after:
            return None
        after |= 1 << k
    return tuple(order)


def extend_to_views(partials: Mapping[int, Relation], program: Program) -> ViewSet:
    """Totalise per-process partial orders into a strongly causal view set.

    Each input must be an acyclic order over its process's universe that
    respects program order and the strong causal order the partials
    already hold jointly.  Unordered cross-process write pairs are fixed
    so that no step introduces a new strong causal ordering; remaining
    (write, read) gaps close write-first.  The orders are kept closed, as
    rows over the program index.
    """
    procs = tuple(sorted(program.processes))
    if set(partials) != set(procs):
        raise PreconditionViolated("one partial order per process is required")
    ids = program.all_ops
    inputs: dict[int, list[int]] = {}
    orders: dict[int, list[int]] = {}
    for i in procs:
        rel = partials[i]
        if rel.universe != program.universe_of(i):
            raise PreconditionViolated(
                f"partial order of process {i} is not over its own operations "
                f"plus all writes"
            )
        inputs[i] = _rows_of(rel, program)
        orders[i] = kernels.closure_rows(inputs[i])
        if _cyclic(orders[i]):
            raise PreconditionViolated(f"partial order of process {i} has a cycle")
    committed = _extended_sco(orders, program)
    for i in procs:
        po = program.process_index(i).po_rows
        missing = [(c | p) & ~o for c, p, o in zip(committed, po, orders[i])]
        first = next((k for k, row in enumerate(missing) if row), None)
        if first is not None:
            a, b = ids[first], ids[(missing[first] & -missing[first]).bit_length() - 1]
            raise PreconditionViolated(
                f"partial order of process {i} does not respect the required "
                f"ordering ({a}, {b})"
            )

    owner = [program.proc_of(o) for o in ids]
    positions = program.write_positions
    cross = [
        (a, b)
        for a in positions
        for b in positions
        if owner[a] != owner[b] and (owner[a], a) < (owner[b], b)
    ]
    for a, b in cross:
        before = _extended_sco(orders, program)
        pa, pb = owner[a], owner[b]
        if not _related(orders[pa], a, b):
            orders[pa] = _close_with(orders[pa], a, b)
        if not _related(orders[pb], a, b):
            orders[pb] = _close_with(orders[pb], b, a)
        for k in procs:
            if k in (pa, pb) or _related(orders[k], a, b):
                continue
            keep = _close_with(orders[k], a, b)
            if not _adds_own_sco(orders[k], keep, program, k):
                orders[k] = keep
            else:
                flip = _close_with(orders[k], b, a)
                if _adds_own_sco(orders[k], flip, program, k):
                    raise InternalInvariant(
                        f"both orientations of ({ids[a]}, {ids[b]}) force a new "
                        f"strong causal ordering at process {k}"
                    )
                orders[k] = flip
        for k in procs:
            if _cyclic(orders[k]):
                raise InternalInvariant(
                    f"ordering ({ids[a]}, {ids[b]}) made process {k}'s order cyclic"
                )
        if _extended_sco(orders, program) != before:
            raise InternalInvariant(
                f"ordering ({ids[a]}, {ids[b]}) changed the strong causal order"
            )

    index = program.index
    for i in procs:
        reads = [index[o] for o in program.own(i) if program.ops[o].kind == READ]
        for r in reads:
            for w in positions:
                if not _related(orders[i], w, r):
                    orders[i] = _close_with(orders[i], w, r)

    out = []
    for i in procs:
        seq = _sequence(orders[i], program.universe_of(i), program)
        if seq is None:
            raise InternalInvariant(f"completion left process {i}'s order partial")
        out.append(View(i, seq))
    views = ViewSet.of(out)
    for i in procs:
        dropped = program.pairs_of(
            [p & ~o for p, o in zip(inputs[i], order_rows(views[i], program))]
        )
        if dropped:
            a, b = min(dropped)
            raise InternalInvariant(
                f"completion dropped the input ordering ({a}, {b}) of process {i}"
            )
    derived = derive_writes_to(views, program)
    bad = check_strong_causal(views, derived)
    if bad is not None:
        raise InternalInvariant(f"completion is not strongly causal: {bad}")
    return views


def necessity_witness_view_record(
    views: ViewSet, execution: Execution, process: int, edge: Pair
) -> ViewSet:
    """A strongly causal replay certifying the record without `edge` whose
    views differ from the originals: the edge's endpoints swapped in its
    owner's view."""
    record = minimal_view_record(views, execution)
    return view_witness(views, execution, record, process, edge)


def view_witness(
    views: ViewSet, execution: Execution, record: Record, process: int, edge: Pair
) -> ViewSet:
    """`necessity_witness_view_record` for strongly causal views whose
    minimal view record the caller already holds."""
    program = execution.program
    if edge not in record.edges(process):
        raise PreconditionViolated(
            f"edge {edge} is not a required record edge of process {process}"
        )
    a, b = edge
    seq = list(views[process].sequence)
    idx = seq.index(a)
    if seq[idx + 1] != b:
        raise InternalInvariant(f"record edge {edge} is not consecutive in the view")
    seq[idx], seq[idx + 1] = b, a
    witness = views.replace(View(process, tuple(seq)))
    derived = derive_writes_to(witness, program)
    bad = check_strong_causal(witness, derived)
    if bad is not None:
        raise InternalInvariant(f"swapped views are not strongly causal: {bad}")
    if not certifies(witness, program, record.drop(process, edge), STRONG_CAUSAL):
        raise InternalInvariant("swapped views do not certify the reduced record")
    return witness


def necessity_witness_race_record(
    views: ViewSet, execution: Execution, process: int, edge: Pair
) -> ViewSet:
    """A strongly causal replay certifying the race record without `edge`
    in which `process` resolves that race the other way."""
    bad = check_strong_causal(views, execution)
    if bad is not None:
        raise NotStronglyCausal(str(bad))
    analysis = RaceAnalysis(views, execution.program)
    return race_witness(analysis, analysis.record(), process, edge)


def race_witness(
    analysis: RaceAnalysis, record: Record, process: int, edge: Pair
) -> ViewSet:
    """`necessity_witness_race_record` for strongly causal views whose
    race analysis and minimal race record the caller already holds."""
    program = analysis.program
    if edge not in record.edges(process):
        raise PreconditionViolated(
            f"edge {edge} is not a required record edge of process {process}"
        )
    o1, o2 = edge
    a, b = program.index[o1], program.index[o2]
    cascade = analysis.cascade_rows(process, o1, o2)
    partials: dict[int, Relation] = {}
    for j in sorted(program.processes):
        rows = [o | c for o, c in zip(analysis.obligation_rows(j), cascade)]
        if j == process:
            # the cascade may echo the dropped edge itself when its target
            # is an own write; re-adding it would cancel the flip
            rows[a] &= ~(1 << b)
            rows[b] |= 1 << a
        partials[j] = Relation(program.universe_of(j), program.pairs_of(rows))
    witness = extend_to_views(partials, program)
    if data_race_rows(witness[process], program) == analysis.dro_rows(process):
        raise InternalInvariant("witness reproduces the original data-race order")
    if not certifies(witness, program, record.drop(process, edge), STRONG_CAUSAL):
        raise InternalInvariant("witness does not certify the reduced record")
    return witness
