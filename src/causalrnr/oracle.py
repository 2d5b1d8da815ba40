"""Record goodness: brute-force ground truth, and the strong model's fixpoint.

`enumerate_certifying` walks every set of replay views that extends a
record under a consistency model, with the view-set descent it shares
with `find_explanation` (`consistency.iter_view_sets`): program order
and the record edges, closed once per process, are each view's base,
and the reads return what the views make them return.  Every set the
descent completes certifies by construction (`iter_view_sets` gives the
argument), so no candidate is checked again; `certifies` remains the
whole-set check for given views.  The enumeration is the ground truth:
it is independent of the record constructions, and of the fixpoint
below.

The goodness verdicts ask whether some certifying replay differs from
the original views (`is_good_view_record`) or in some data-race order
(`is_good_race_record`).  Under the causal model they walk the same
descent until a differing set turns up.
Under the strong model the replay constraints are monotone, so they are
decided by a fixpoint instead (`_saturate`): every view extends its
closed base, and respects the SCO its owners' orders put on their own
writes.  A cyclic fixpoint admits no replay, and an acyclic one
totalises into a certifying replay (`extend_to_views`).  A replay
differs iff it reverses an adjacent pair of an original view (of one
variable's operations in it, for data-race orders), so a record is not
good iff the fixpoint already reverses such a pair or can reverse one
without a cycle; the least counterexample is then placed position by
position (`_strong_counterexample`).  `Verdict.enumerated` counts the
certifying sets walked under the causal model and the fixpoints
computed under the strong model, where the enumeration cap and the
placement budget do not apply.

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
    iter_view_sets,
    sco_rows,
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
    data_race_rows,
    derive_writes_to,
    order_rows,
)
from causalrnr.race_record import RaceAnalysis
from causalrnr.records import Record
from causalrnr.relations import Pair, Relation, transitive_closure
from causalrnr.search import NodeBudget
from causalrnr.view_record import minimal_view_record

DEFAULT_NODE_BUDGET = 20_000_000


@dataclass(frozen=True)
class Verdict:
    good: bool
    counterexample: ViewSet | None
    original_certifies: bool
    # certifying sets walked (causal model) or fixpoints computed (strong)
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


def _base_rows(program: Program, record: Record) -> dict[int, list[int]] | None:
    """Per process, program order plus its record edges, validated and
    closed once per query, as rows over the program index; None when some
    process's record is cyclic, so that no replay extends it.  Every
    process is validated, in process order, before a cycle is reported."""
    index = program.index
    base = {}
    cyclic = False
    for i in sorted(program.processes):
        pi = program.process_index(i)
        rows = list(pi.po_rows)
        for a, b in sorted(record.edges(i)):
            ka, kb = index.get(a, -1), index.get(b, -1)
            mask = pi.universe_mask
            if a == b:
                problem = f"self-loop ({a}, {b}) is not representable"
            elif min(ka, kb) < 0 or not mask >> ka & mask >> kb & 1:
                problem = f"pair ({a}, {b}) escapes the universe"
            else:
                rows[ka] |= 1 << kb
                continue
            raise ValueError(f"record for process {i} is malformed: {problem}")
        base[i] = kernels.closure_rows(rows)
        cyclic = cyclic or _cyclic(base[i])
    return None if cyclic else base


def _relation_base_rows(program: Program, record: Record) -> dict[int, list[int]] | None:
    """`_base_rows` built through the `Relation` toolkit instead of the
    kernels, for `enumerate_certifying`: the enumeration the goodness
    verdicts are tested against shares no base construction with them.
    perfbench's tracer self-test also relies on this by-name call of
    `transitive_closure` from an oracle query."""
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
    base = _relation_base_rows(program, record)
    if base is None:
        return
    budget = NodeBudget(node_budget)
    for views, _ in iter_view_sets(program, model, base, budget, reads_given=False):
        yield ViewSet.of(views)


def _difference_test(views: ViewSet, program: Program, kind: str):
    """The test of whether a leaf of the descent differs from the original
    `views`: in their sequences, or in some process's data-race order,
    read off the descent's order rows (the last view's are built here)."""
    if kind == "views":
        reference = views.sort_key()
        return lambda leaf, orders: tuple(v.sequence for v in leaf) != reference
    original = {i: data_race_rows(views[i], program) for i in sorted(program.processes)}
    masks = program.variable_masks

    def differs(leaf: list[View], orders: list[list[int]]) -> bool:
        rows = orders + [order_rows(view, program) for view in leaf[len(orders):]]
        return any(
            [row & mask for row, mask in zip(order, masks)] != original[view.process]
            for view, order in zip(leaf, rows)
        )

    return differs


# ---------------------------------------------------------------------------
# Strong model: the SCO fixpoint
# ---------------------------------------------------------------------------


def _saturate(
    program: Program,
    rows: Mapping[int, list[int]],
    edges: Mapping[int, tuple[tuple[int, int], ...]],
) -> dict[int, list[int]] | None:
    """The least fixpoint of the strong model's replay constraints above
    `rows` plus `edges`, or None when it holds a cycle.

    `rows` holds each process's closed rows, a fixpoint already except
    for the processes named in `edges`, whose new edges are (source,
    targets mask) pairs.  A process whose rows changed lifts its
    own-write rows through SCO (`sco_rows`) onto every other process,
    which may change in turn, until nothing changes.  Every constraint is
    monotone (each view extends its rows, and each respects the SCO its
    owners' rows force), so an edge derived here holds in every replay
    above `rows` and `edges`: a cycle means there is none.  An acyclic
    result is a valid input to `extend_to_views`, which totalises it into
    a certifying replay, so the two outcomes decide feasibility exactly.

    Rows are acyclic on entry, so a cycle passes through a new edge and
    shows as a self bit at that edge's source."""
    positions = program.write_positions
    out = dict(rows)
    work = []
    for i, new in edges.items():
        closed = out[i]
        for a, targets in new:
            closed = kernels.close_with(closed, a, targets)
            if closed[a] >> a & 1:
                return None
        out[i] = closed
        work.append(i)
    while work:
        i = work.pop()
        lifted = sco_rows(program, [(i, out[i])])
        for j, closed in out.items():
            if j == i:
                continue
            grown = closed
            for a in positions:
                gain = lifted[a] & ~grown[a]
                if gain:
                    grown = kernels.close_with(grown, a, gain)
                    if grown[a] >> a & 1:
                        return None
            if grown is not closed:
                out[j] = grown
                if j not in work:
                    work.append(j)
    return out


def _adjacent_pairs(
    views: ViewSet, program: Program, kind: str
) -> list[tuple[int, int, int]]:
    """(process, a, b) for the position pairs a, b adjacent in an original
    view (kind "views") or among one variable's operations in it (kind
    "dro").  Two total orders over one set differ iff one reverses an
    adjacent pair of the other, so a replay differs from the original
    views, or in some data-race order, iff it reverses one of these."""
    index = program.index
    masks = program.variable_masks
    out = []
    for i in sorted(program.processes):
        seq = [index[o] for o in views[i].sequence]
        if kind == "views":
            out += [(i, a, b) for a, b in zip(seq, seq[1:])]
            continue
        last: dict[int, int] = {}
        for k in seq:
            if masks[k] in last:
                out.append((i, last[masks[k]], k))
            last[masks[k]] = k
    return out


def _strong_counterexample(
    program: Program, base: dict[int, list[int]], pairs: list[tuple[int, int, int]]
) -> tuple[ViewSet | None, int]:
    """The least view set certifying a strongly causal replay above the
    closed base rows that reverses one of `pairs`, or None, with the
    number of fixpoints (`_saturate` calls) computed.

    A state is the fixpoint of the base plus the placed prefixes, each a
    set of edges from every placed position to the positions after it.
    A state admits a difference iff its rows already reverse a pair, or
    some pair they leave unordered can be reversed without a cycle; the
    fixpoint of that reversal is kept as a witness, and a placement that
    the witness already orders keeps it valid, since the witness is then
    a fixpoint above the new state too.  Processes are placed in order,
    each position by position, trying the remaining positions without a
    remaining predecessor in ascending order and keeping the first whose
    state still admits a difference.  Since feasibility is exact, this is
    the lexicographically least such set: the one `_find_counterexample`
    returns first."""
    queries = 0

    def saturate(rows, edges):
        nonlocal queries
        queries += 1
        return _saturate(program, rows, edges)

    def reverses(rows) -> bool:
        return any(rows[i][b] >> a & 1 for i, a, b in pairs)

    # per (process, b), the a of every pair (a, b)
    into: dict[tuple[int, int], int] = {}
    for i, a, b in pairs:
        into[i, b] = into.get((i, b), 0) | 1 << a

    def flip(rows, first):
        """A pair of `pairs` that `rows` leaves unordered and can reverse,
        trying `first` before the others, with the reversal's fixpoint."""
        order = pairs if first is None else [first] + [p for p in pairs if p != first]
        for i, a, b in order:
            if _related(rows[i], a, b):
                continue
            state = saturate(rows, {i: ((b, 1 << a),)})
            if state is not None:
                return (i, a, b), state
        return None, None

    rows = saturate(base, {i: () for i in base})
    if rows is None:
        return None, queries
    differs = reverses(rows)
    flipped = witness = None
    if not differs:
        flipped, witness = flip(rows, None)
        if witness is None:
            return None, queries

    ids = program.all_ops
    writes = program.writes_mask
    views = []
    for i in sorted(program.processes):
        pi = program.process_index(i)
        remaining = pi.universe_mask
        seq = []
        while remaining:
            blocked = 0
            rest = remaining
            while rest:
                low = rest & -rest
                blocked |= rows[i][low.bit_length() - 1]
                rest ^= low
            candidates = remaining & ~blocked
            while candidates:
                low = candidates & -candidates
                candidates ^= low
                c = low.bit_length() - 1
                after = remaining ^ low
                gain = after & ~rows[i][c]
                if writes & low and gain & pi.own_writes_mask:
                    # new SCO edges from c to own writes of i
                    state = saturate(rows, {i: ((c, gain),)})
                    if state is None:
                        continue
                    reversal = not differs and reverses(state)
                else:
                    # no SCO edge changes, and the placed positions
                    # precede c, so no cycle can form and only row c
                    # of process i gains
                    state = rows
                    if gain:
                        state = dict(rows)
                        state[i] = kernels.close_with(rows[i], c, gain)
                    reversal = bool(gain & into.get((i, c), 0))
                if reversal:
                    differs = True
                elif not differs and after & ~witness[i][c]:
                    found, kept = flip(state, flipped)
                    if kept is None:
                        continue
                    flipped, witness = found, kept
                rows = state
                remaining = after
                seq.append(c)
                break
            else:
                raise InternalInvariant(
                    f"no position of process {i} extends a feasible state"
                )
        views.append(View(i, tuple(ids[k] for k in seq)))
    return ViewSet.of(views), queries


def _goodness(
    views: ViewSet,
    program: Program,
    record: Record,
    model: str,
    kind: str,
    *,
    max_ops: int | None,
    node_budget: int | None,
) -> Verdict:
    strong = model == STRONG_CAUSAL
    if not strong:
        cap = enumeration_cap(max_ops)
        if len(program.all_ops) > cap:
            raise BudgetExceeded(
                f"{len(program.all_ops)} operations exceed the enumeration cap of {cap}"
            )
    base = _base_rows(program, record)
    original = certifies(views, program, record, model)
    if base is None:
        return Verdict(True, None, original, 0)
    if strong:
        pairs = _adjacent_pairs(views, program, kind)
        counterexample, queries = _strong_counterexample(program, base, pairs)
        return Verdict(counterexample is None, counterexample, original, queries)
    differs = _difference_test(views, program, kind)
    budget = NodeBudget(node_budget)
    seen = 0
    for leaf, orders in iter_view_sets(program, model, base, budget, reads_given=False):
        seen += 1
        if differs(leaf, orders):
            return Verdict(False, ViewSet.of(leaf), original, seen)
    return Verdict(True, None, original, seen)


def is_good_view_record(
    views: ViewSet,
    program: Program,
    record: Record,
    model: str = STRONG_CAUSAL,
    *,
    max_ops: int | None = None,
    node_budget: int | None = DEFAULT_NODE_BUDGET,
) -> Verdict:
    """Good iff every certifying replay view set equals the original views."""
    return _goodness(
        views, program, record, model, "views",
        max_ops=max_ops, node_budget=node_budget,
    )


def is_good_race_record(
    views: ViewSet,
    program: Program,
    record: Record,
    model: str = STRONG_CAUSAL,
    *,
    max_ops: int | None = None,
    node_budget: int | None = DEFAULT_NODE_BUDGET,
) -> Verdict:
    """Good iff every certifying replay view set reproduces each process's
    data-race order."""
    return _goodness(
        views, program, record, model, "dro",
        max_ops=max_ops, node_budget=node_budget,
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


def _adds_own_sco(before: list[int], after: list[int], program: Program, process: int) -> bool:
    """Whether `after` holds a write pair ending at an own write of
    `process` that `before` lacks."""
    own = program.process_index(process).own_writes_mask
    return any(after[p] & ~before[p] & own for p in program.write_positions)


def _related(rows: list[int], a: int, b: int) -> bool:
    return bool((rows[a] >> b | rows[b] >> a) & 1)


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
    committed = sco_rows(program, orders.items())
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
        before = sco_rows(program, orders.items())
        pa, pb = owner[a], owner[b]
        if not _related(orders[pa], a, b):
            orders[pa] = kernels.close_with(orders[pa], a, 1 << b)
        if not _related(orders[pb], a, b):
            orders[pb] = kernels.close_with(orders[pb], b, 1 << a)
        for k in procs:
            if k in (pa, pb) or _related(orders[k], a, b):
                continue
            keep = kernels.close_with(orders[k], a, 1 << b)
            if not _adds_own_sco(orders[k], keep, program, k):
                orders[k] = keep
            else:
                flip = kernels.close_with(orders[k], b, 1 << a)
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
        if sco_rows(program, orders.items()) != before:
            raise InternalInvariant(
                f"ordering ({ids[a]}, {ids[b]}) changed the strong causal order"
            )

    index = program.index
    for i in procs:
        reads = [index[o] for o in program.own(i) if program.ops[o].kind == READ]
        for r in reads:
            for w in positions:
                if not _related(orders[i], w, r):
                    orders[i] = kernels.close_with(orders[i], w, 1 << r)

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
    in which `process` resolves that race the other way.

    Only `edge`'s membership in the minimal race record is decided; the
    witness is certified against the candidate record without `edge`,
    which holds the minimal record without it, so the check is at least
    as strict."""
    bad = check_strong_causal(views, execution)
    if bad is not None:
        raise NotStronglyCausal(str(bad))
    analysis = RaceAnalysis(views, execution.program)
    if not analysis.in_record(process, edge):
        raise PreconditionViolated(
            f"edge {edge} is not a required record edge of process {process}"
        )
    return race_witness(analysis, analysis.candidate_record(), process, edge)


def race_witness(
    analysis: RaceAnalysis, record: Record, process: int, edge: Pair
) -> ViewSet:
    """`necessity_witness_race_record` for strongly causal views whose
    race analysis the caller already holds, certified against `record`
    without `edge`: the minimal race record or a record that holds it."""
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
