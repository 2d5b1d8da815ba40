"""Record goodness: brute-force ground truth, and the strong model's fixpoint.

A view set certifies a replay of a record when it extends the record
and respects the model; `certifies` is the one test of that, read off
the views' order rows (its docstring gives the argument).
`enumerate_certifying` walks every certifying set with the view-set
descent (`consistency.iter_view_sets`), which the causal verdicts walk
too: program order and the record edges, closed once per process, are
each view's base, and the reads return what the views make them return.
Every set the descent completes certifies by construction
(`iter_view_sets` gives the argument), so no candidate is checked
again, and each is yielded as the descent built it, not rebuilt.  The
enumeration is independent of the record constructions and of the
fixpoint below, but capped at 10 operations by default.

`certifying_replays` lists the same strong-model sets, in the same
order, on that fixpoint (`consistency._walk`), with polynomial delay
and no cap; the fuzz battery's "exactly one certifying replay" check
runs on it, so that check and the battery's goodness verdicts are two
uses of one fixpoint, not a verdict against an independent enumeration.
Up to 10 operations the tests cross-check the walk against
`enumerate_certifying`, and that against an unpruned reference; beyond
that nothing independent checks the fixpoint yet.
`enumerate_certifying` keeps the descent: its memo makes it about five
times faster than the fixpoint walk on queries with thousands of sets
(the `enumerate` benchmark pool's 70 strong empty-record queries, 19,588
sets: 0.05 s against 0.27 s, best of five on a 2-CPU x86-64 host).

The goodness verdicts ask whether some certifying replay differs from
the original views (`is_good_view_record`) or in some data-race order
(`is_good_race_record`), and whether the original views certify the
record (`Verdict.original_certifies`, from `certifies`).  Both models
share one difference test: two total orders over one set differ iff one
reverses an adjacent pair of the other, so a replay differs iff it
reverses an adjacent pair of an original view (of one variable's
operations in it, for data-race orders; `_adjacent_pairs`).  Under the
causal model the verdicts walk the descent until a leaf reverses such a
pair.  Under the strong model the replay constraints are monotone, so
they are decided by a fixpoint instead (`consistency.saturate`, the
package's one fixpoint helper, which `find_explanation` runs with read
validity's rules added and the oracle runs without): every view extends
its closed base, and respects the SCO its owners' orders put on their
own writes.  A cyclic fixpoint admits no replay, and an acyclic one
totalises into a certifying replay (`saturate` gives the argument), so
a record is not good iff the fixpoint already reverses such a pair or
can reverse one without a cycle; the least counterexample is then
placed position by position (`_least_replay`).  `Verdict.enumerated`
counts the certifying sets walked under the causal model and the
fixpoints computed under the strong model, where the enumeration cap
and the placement budget do not apply, though a malformed one is still
a usage error.

The verdicts on one view set share what depends on the views alone: a
`Goodness`, built from the views and the program, caches the record-
independent half of `certifies` per model, the adjacent pairs per kind,
and each process's closed base under its record edges, so a record
with one edge dropped closes one process's base again.  The battery
shares one per fixture, as it shares one `RaceAnalysis`.
`is_good_view_record`, `is_good_race_record` and `race_witness` are
one-shot wrappers that build one per call, so every query takes one
path.  The one other route is `Goodness.without_edge`, the verdict on a
record with one edge dropped: when the record is good and the original
views certify it, the dropped record's differing replays are exactly
those that reverse the edge, so the least one is placed by
`_least_replay` with the edge reversed and no pair to reverse (its
docstring gives the argument); any other record falls back to the
verdict.

A `Goodness` also keeps its placements.  The battery asks many queries
of one fixture, and several ask for the same placement: equal bases
with equal pairs.  The strong verdicts, the dropped-edge verdicts and
`Goodness.race_witness` place through `Goodness._replay`, which keeps
each `_least_replay` result under its bases and pairs and hands it out
again, fixpoint count included.  The placement is a pure function of
the program, the closed bases and the pairs, and its result is a frozen
view set and a count, so sharing it changes no verdict, counterexample,
witness or `Verdict.enumerated`.  The memo lives as long as the
`Goodness`, so a one-shot call shares nothing, and `Goodness.placed`
and `Goodness.shared` count the replays placed and those answered from
the memo.

`extend_to_views` and the two necessity witnesses are the constructive
side: they build, from a record with one edge dropped, a certifying view
set that provably differs from the original.  `_least_replay` is their
one totaliser too: without pairs to reverse, it places the least replay
above closed base rows.  `extend_to_views` hands it the closures of its
partial orders, with no memo, and the race witness program order plus
each process's candidate record, with the witnessed edge reversed,
closed onto program order (`kernels.close_onto`); the view witness
swaps its edge in its owner's view.  Each witness is checked on its
order rows, built once: for strong causality by the rows test that
`certifies` runs (`consistency.strongly_causal_orders`; its reads
return what its views make them return, so none is derived or
checked), then for extending the reduced record.  The witnesses start
from the original views' order rows, which the view set keeps
(`ViewSet.order_rows`), and the view witness derives its two changed
rows from them (`_swap`) and tests them as they stand.
The full checker runs only on a witness that fails the rows test, to
word the error.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Mapping

from causalrnr import kernels
from causalrnr.consistency import (
    CAUSAL,
    STRONG_CAUSAL,
    _check_cap,
    _strong_causal_check,
    _views,
    _walk,
    check_strong_causal,
    cyclic,
    enumeration_cap,
    iter_view_sets,
    respects,
    saturate,
    sco_rows,
    strongly_causal_orders,
    strongly_causal_rows,
)
from causalrnr.errors import (
    InternalInvariant,
    NotStronglyCausal,
    PreconditionViolated,
)
from causalrnr.model import (
    Execution,
    Program,
    View,
    ViewSet,
    check_complete,
    derive_writes_to,
    read_sources,
    write_read_write_rows,
)
from causalrnr.race_record import RaceAnalysis
from causalrnr.records import Record
from causalrnr.relations import Pair, Relation, is_pair, transitive_closure
from causalrnr.search import NodeBudget
from causalrnr.view_record import required_edges

DEFAULT_NODE_BUDGET = 20_000_000


@dataclass(frozen=True)
class Verdict:
    good: bool
    counterexample: ViewSet | None
    original_certifies: bool
    # certifying sets walked (causal model) or fixpoints computed (strong)
    enumerated: int


def certifies(candidate: ViewSet, program: Program, record: Record, model: str) -> bool:
    """Whether `candidate` certifies a replay of the record under the
    model: it holds one view per process over its universe, each view
    extends its process's record edges (`_extends`), and each view's
    order rows hold its program order and the model's order (`_holds`).

    Nothing else needs checking.  The execution a view set explains is
    the one its views derive (`derive_writes_to`): each read returns the
    last preceding write in its owner's view, so the set is read-valid by
    construction.  And a total order respects a relation iff it respects
    the relation's closure, so nothing is closed: program order plus the
    model's order is tested as it stands.  A cyclic record never
    certifies, since no total order extends a cycle.

    Raises `UniverseMismatch` for a set without a view of each process
    over its universe, and ValueError for a view of an unknown process,
    a record that names a process the program lacks, or a record edge
    that escapes its process's universe."""
    _check_model(model)
    check_complete(candidate, program)
    _check_record_processes(program, record)
    holds = _holds(candidate, program, model)
    return _extends(candidate, program, record) and holds


def _check_model(model: str) -> None:
    if model not in (CAUSAL, STRONG_CAUSAL):
        raise ValueError(f"unsupported replay model {model!r}")


def _holds(candidate: ViewSet, program: Program, model: str) -> bool:
    """The record-independent half of `certifies`, for a complete set:
    whether each view's order rows hold its program order plus the
    model's order.  That order is the SCO the owners' views place on
    their own writes under the strong model, tested by
    `consistency.strongly_causal_rows` (`strongly_causal_orders`, the
    rows test that also checks every witness), and the WO of the reads
    the views derive under the causal model.  Every view's rows are
    built, and so checked (`ViewSet.order_rows`), before any is tested."""
    if model == STRONG_CAUSAL:
        return strongly_causal_rows(candidate, program)[1]
    views = candidate.views
    orders = candidate.order_rows(program)
    sources = [(r, s) for v in views for r, s in read_sources(v, program) if s is not None]
    wo = write_read_write_rows(program, sources)
    return all(
        respects(rows, program.process_index(v.process).po_rows, wo)
        for v, rows in zip(views, orders)
    )


def _extends(candidate: ViewSet, program: Program, record: Record) -> bool:
    """Whether every view of `candidate` orders its process's record
    edges as recorded."""
    for i in sorted(program.processes):
        view = candidate[i]
        for a, b in record.edges(i):
            pos = view.positions
            _check_edge(i, a, b, pos)
            if pos[a] > pos[b]:
                return False
    return True


def _check_edge(process: int, a: str, b: str, pos: Mapping[str, int]) -> None:
    """ValueError for a record edge of `process` that escapes its view,
    whose positions are `pos`, or that is a self-loop."""
    if a not in pos or b not in pos:
        raise ValueError(f"record edge ({a}, {b}) escapes process {process}'s view")
    if a == b:
        raise _self_loop(process, a)


def _base_rows(
    program: Program,
    record: Record,
    bases: dict[tuple[int, frozenset[Pair]], list[int] | None] | None = None,
) -> dict[int, list[int]] | None:
    """Per process, program order plus its record edges, validated and
    closed (`_process_base`), as rows over the program index; None when
    some process's record is cyclic, so that no replay extends it.  Every
    process is validated, in process order, before a cycle is reported.
    `bases`, when given, keeps each process's result under (process, its
    record edges), so a record that shares a process's edges with an
    earlier one reuses that process's rows; callers must not change them."""
    _check_record_processes(program, record)
    if bases is None:
        bases = {}
    base = {}
    looped = False
    for i in sorted(program.processes):
        edges = record.edges(i)
        key = (i, edges)
        if key not in bases:
            bases[key] = _process_base(program, i, edges)
        rows = bases[key]
        looped = looped or rows is None
        base[i] = rows
    return None if looped else base


def _process_base(program: Program, process: int, edges: frozenset[Pair]) -> list[int] | None:
    """Program order of `process` plus its record `edges`, closed, or None
    when they hold a cycle.  Every edge is validated first, in sorted
    order; program order's rows are closed already, so the edges are
    then added onto them in one incremental closure (`kernels.close_onto`),
    where a cycle shows as a self bit."""
    index = program.index
    pi = program.process_index(process)
    mask = pi.universe_mask
    pairs = []
    for a, b in sorted(edges):
        ka, kb = index.get(a, -1), index.get(b, -1)
        if a == b:
            raise _self_loop(process, a)
        if min(ka, kb) < 0 or not mask >> ka & mask >> kb & 1:
            raise ValueError(
                f"record for process {process} is malformed: pair ({a}, {b}) escapes the universe"
            )
        pairs.append((ka, 1 << kb))
    rows = kernels.close_onto(pi.po_rows, pairs)
    return None if cyclic(rows) else rows


def _self_loop(process: int, op: str) -> ValueError:
    return ValueError(
        f"record for process {process} is malformed: self-loop ({op}, {op}) is not representable"
    )


def _check_limits(
    program: Program, model: str, max_ops: int | None, node_budget: int | None
) -> NodeBudget:
    """A verdict's placement budget, with both of its limits checked under
    any model: a `node_budget`, or a `max_ops` other than None, that is
    not a non-negative int raises ValueError (`NodeBudget`,
    `enumeration_cap`).  Only the causal model's walk is limited: a
    program past its enumeration cap raises `BudgetExceeded` here, and
    the walk spends the budget.  The strong model's fixpoint applies
    neither limit, so it reads no cap from the environment, and an
    unsupported model meets no cap either: it is rejected as such, once
    the record is validated (`_certifies`)."""
    if model == CAUSAL:
        _check_cap(program, max_ops)
    elif max_ops is not None:
        enumeration_cap(max_ops)
    return NodeBudget(node_budget)


def _check_record_processes(program: Program, record: Record) -> None:
    """Raises ValueError for a record that names a process the program
    lacks, whose edges no view could order."""
    for i, _ in record.per_process:
        if i not in program.processes:
            raise ValueError(f"record names process {i}, which the program lacks")


def _relation_base_rows(program: Program, record: Record) -> dict[int, list[int]] | None:
    """`_base_rows` built through the `Relation` toolkit instead of the
    kernels, for `enumerate_certifying`: the enumeration the goodness
    verdicts are tested against shares no base construction with them.
    perfbench's tracer self-test also relies on this by-name call of
    `transitive_closure` from an oracle query."""
    base = {}
    looped = False
    for i in sorted(program.processes):
        pairs = program.process_index(i).po_pairs | record.edges(i)
        try:
            closed = transitive_closure(Relation(program.universe_of(i), pairs))
        except ValueError as exc:
            raise ValueError(f"record for process {i} is malformed: {exc}") from exc
        looped = looped or any((b, a) in closed.pairs for a, b in closed.pairs)
        base[i] = _rows_of(closed, program)
    return None if looped else base


def enumerate_certifying(
    program: Program,
    record: Record,
    model: str,
    *,
    max_ops: int | None = None,
    node_budget: int | None = DEFAULT_NODE_BUDGET,
) -> Iterator[ViewSet]:
    """Every view set certifying a replay of the record, in lexicographic
    order of the per-process sequences.  A record that names a process
    the program lacks, or holds an edge outside its process's universe,
    raises ValueError before anything is yielded."""
    _check_model(model)
    _check_cap(program, max_ops)
    budget = NodeBudget(node_budget)
    _check_record_processes(program, record)
    base = _relation_base_rows(program, record)
    if base is None:
        return
    yield from iter_view_sets(program, model, base, budget)


# ---------------------------------------------------------------------------
# Strong model: the SCO fixpoint
# ---------------------------------------------------------------------------


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


def _least_replay(
    program: Program,
    base: dict[int, list[int]],
    pairs: list[tuple[int, int, int]] | None,
) -> tuple[ViewSet | None, int]:
    """The least view set certifying a strongly causal replay above the
    closed base rows, or None, with the number of fixpoints (`saturate`
    calls) computed.  With `pairs` (process, a, b) the replay must also
    reverse one of them: the least counterexample of the strong-model
    verdicts.  With None any replay will do: the least totalisation of
    the base, which `extend_to_views` and `race_witness` build.

    A state is the fixpoint of the base plus the placed prefixes, each a
    set of edges from every placed position to the positions after it.
    Processes are placed in order, each position by position, trying the
    remaining positions without a remaining predecessor in ascending
    order and keeping the first whose state is feasible.  Feasibility is
    exact: a state admits a certifying replay iff its fixpoint is acyclic.
    A cycle rules every replay out, since each replay's order rows are a
    fixpoint above the state and so hold the least one.  Conversely an
    acyclic fixpoint totalises (`saturate` gives the argument); in such
    a totalisation the first remaining position of process i has no
    remaining predecessor, so placing it keeps the fixpoint below that
    totalisation, acyclic.  Hence some candidate always extends a
    feasible state, a stuck placement breaks the theorem and raises
    `InternalInvariant`, and the result is the lexicographically least
    certifying set: the first that `enumerate_certifying` yields over the
    same base.

    With `pairs`, a state admits a difference iff its rows already
    reverse a pair, or some pair they leave unordered can be reversed
    without a cycle; the fixpoint of that reversal is kept as a witness,
    and a placement that the witness already orders keeps it valid, since
    the witness is then a fixpoint above the new state too.  A state is
    then feasible iff it also admits a difference, so the result is the
    least certifying set that differs: the first differing set that
    `enumerate_certifying` yields.

    Only a candidate c that is a write and gains an own write of process
    i as a successor adds SCO edges, and only then is a fixpoint computed.
    Any other placement changes row c of process i alone, by `gain`, the
    remaining positions c does not precede yet.  No SCO edge changes, so
    no other process gains.  A remaining position's row holds only
    remaining positions other than c: a placed position precedes every
    remaining one, so reaching it would close a cycle, and c has no
    remaining predecessor.  So closing the new edges adds nothing to row
    c beyond `gain`.  A placed position's row already holds every
    remaining position, and no remaining one reaches c, so no other row
    gains, and no cycle forms.  The state is then updated in place: the
    current state's dict is always a fixpoint's fresh output, but its
    row lists may be shared with the witness and with `base`, so the
    changed row list is copied first, and a new dict is built only for
    a flip to start from.

    The placement reads nothing but the program, the bases and the pairs,
    and changes none of them, so it keeps nothing either: a `Goodness`
    shares its results among the queries on one view set
    (`Goodness._replay`)."""
    queries = 0

    def fixpoint(rows, edges):
        nonlocal queries
        queries += 1
        return saturate(program, rows, edges)

    def reverses(rows) -> bool:
        for i, a, b in pairs:
            if rows[i][b] >> a & 1:
                return True
        return False

    # per (process, b), the a of every pair (a, b)
    into: dict[tuple[int, int], int] = {}
    for i, a, b in pairs or ():
        into[i, b] = into.get((i, b), 0) | 1 << a

    def flip(rows, first):
        """A pair of `pairs` that `rows` leaves unordered and can reverse,
        trying `first` before the others, with the reversal's fixpoint."""
        order = pairs if first is None else [first] + [p for p in pairs if p != first]
        for i, a, b in order:
            mine = rows[i]
            if (mine[a] >> b | mine[b] >> a) & 1:
                continue
            state = fixpoint(rows, {i: ((b, 1 << a),)})
            if state is not None:
                return (i, a, b), state
        return None, None

    rows = fixpoint(base, {i: () for i in base})
    if rows is None:
        return None, queries
    differs = pairs is None or reverses(rows)
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
        own = pi.own_writes_mask
        remaining = pi.universe_mask
        seq = []
        while remaining:
            mine = rows[i]
            blocked = 0
            rest = remaining
            while rest:
                low = rest & -rest
                blocked |= mine[low.bit_length() - 1]
                rest ^= low
            candidates = remaining & ~blocked
            while candidates:
                low = candidates & -candidates
                candidates ^= low
                c = low.bit_length() - 1
                after = remaining ^ low
                gain = after & ~mine[c]
                if writes & low and gain & own:
                    # new SCO edges from c to own writes of i
                    state = fixpoint(rows, {i: ((c, gain),)})
                    if state is None:
                        continue
                    reversal = not differs and reverses(state)
                else:
                    # only row c of process i gains, by `gain`
                    state = None
                    grown = mine
                    if gain:
                        grown = list(mine)
                        grown[c] |= gain
                    reversal = bool(gain & into.get((i, c), 0))
                if reversal:
                    differs = True
                elif not differs and after & ~witness[i][c]:
                    if state is None:
                        state = {**rows, i: grown}
                    found, kept = flip(state, flipped)
                    if kept is None:
                        continue
                    flipped, witness = found, kept
                if state is None:
                    rows[i] = grown
                else:
                    rows = state
                remaining = after
                seq.append(c)
                break
            else:
                raise InternalInvariant(
                    f"no position of process {i} extends a feasible state"
                )
        views.append(View(i, tuple(ids[k] for k in seq)))
    return ViewSet._ordered(tuple(views)), queries


def certifying_replays(
    program: Program,
    record: Record,
    *,
    node_budget: int | None = DEFAULT_NODE_BUDGET,
) -> Iterator[ViewSet]:
    """Every view set certifying a strongly causal replay of the record,
    in lexicographic order of the per-process sequences: the sets, and
    their order, of `enumerate_certifying(program, record,
    STRONG_CAUSAL)`, with no enumeration cap.  A malformed record raises
    ValueError before anything is yielded, and each placement spends one
    unit of the `NodeBudget`.

    The sets are the leaves of the fixpoint walk (`consistency._walk`,
    which gives the arguments) above the closed bases (`_base_rows`),
    with SCO lifted and no rules: no branch dies, so the delay is
    polynomial, and the first set is `_least_replay`'s."""
    budget = NodeBudget(node_budget)
    base = _base_rows(program, record)
    if base is None:
        return
    rows = saturate(program, base, {i: () for i in base})
    if rows is None:
        return
    groups = [(i, program.process_index(i).universe_mask) for i in sorted(rows)]
    for placed in _walk(program, rows, groups, budget):
        yield _views(program, placed)


class Goodness:
    """The goodness verdicts of records against one view set.

    Every verdict on a view set shares work that depends on the views
    alone, and `Goodness` does it once, on first use: the record-
    independent half of `certifies` per model (`_holds`), the pairs a
    replay must reverse to differ per kind (`_adjacent_pairs`), and each
    process's closed base, kept under (process, its record edges)
    (`_base_rows`), so a record with one edge dropped closes one
    process's base again, not all of them.  The fuzz battery builds one
    per fixture, in the way it shares one `RaceAnalysis`;
    `is_good_view_record` and `is_good_race_record` are one-shot
    wrappers that build one per verdict.  The cached rows and pairs are
    read-only: `_least_replay` and `saturate` copy a row list before
    they change it.  Each strong verdict that places a replay (on an
    acyclic record) is kept per record and kind, and asking it again
    returns the kept `Verdict`; `without_edge`, the verdict on a record
    with one edge dropped, reads the record's own verdict there to pick
    its route, so the battery's verdict on a record and its dropped-edge
    verdicts place that replay once.  Every placement, those of
    `race_witness` included, goes through `_replay`, which keeps each
    distinct one: `placed` counts them, and `shared` the calls answered
    from a kept one.

    Each verdict checks its limits first (`_check_limits`: ValueError for
    a malformed `max_ops` or `node_budget` under any model), then
    validates its record (ValueError) and the views, on the first verdict
    under each model (`UniverseMismatch`), as the one-shot wrappers do,
    before the kept verdicts are read."""

    def __init__(self, views: ViewSet, program: Program):
        self.views = views
        self.program = program
        self._holds: dict[str, bool] = {}
        self._pairs: dict[str, list[tuple[int, int, int]]] = {}
        self._bases: dict[tuple[int, frozenset[Pair]], list[int] | None] = {}
        self._strong: dict[tuple[Record, str], Verdict] = {}
        self._replays: dict[tuple, tuple[ViewSet | None, int]] = {}
        self._shared = 0

    @property
    def placed(self) -> int:
        """The replays this state placed (`_least_replay` calls)."""
        return len(self._replays)

    @property
    def shared(self) -> int:
        """The placements this state answered with an earlier result."""
        return self._shared

    def _replay(
        self, base: dict[int, list[int]], pairs: list[tuple[int, int, int]] | None
    ) -> tuple[ViewSet | None, int]:
        """`_least_replay` on the program, placed once per distinct bases
        and pairs: a later call with equal ones returns the kept result,
        fixpoint count included.  The placement is a pure function of the
        program, the bases and the pairs, and its result a frozen
        `ViewSet` (or None) and a count, so sharing it changes no
        verdict, counterexample, witness or `Verdict.enumerated`.  The
        keys are rows over this program's index, so only its own queries
        may place here."""
        key = (
            tuple(zip(base, map(tuple, base.values()))),
            None if pairs is None else tuple(pairs),
        )
        result = self._replays.get(key)
        if result is None:
            result = self._replays[key] = _least_replay(self.program, base, pairs)
        else:
            self._shared += 1
        return result

    def verdict(
        self,
        record: Record,
        kind: str,
        model: str = STRONG_CAUSAL,
        *,
        max_ops: int | None = None,
        node_budget: int | None = DEFAULT_NODE_BUDGET,
    ) -> Verdict:
        """Whether the record is good: whether every certifying replay
        view set equals the original views (kind "views", as
        `is_good_view_record`) or reproduces each process's data-race
        order (kind "dro", as `is_good_race_record`)."""
        if kind not in ("views", "dro"):
            raise ValueError(f"unsupported verdict kind {kind!r}")
        program = self.program
        strong = model == STRONG_CAUSAL
        budget = _check_limits(program, model, max_ops, node_budget)
        base = _base_rows(program, record, self._bases)
        original = self._certifies(record, model)
        if strong and (record, kind) in self._strong:
            return self._strong[record, kind]
        if base is None:
            return Verdict(True, None, original, 0)
        pairs = self._pairs.get(kind)
        if pairs is None:
            pairs = self._pairs[kind] = _adjacent_pairs(self.views, program, kind)
        if strong:
            counterexample, queries = self._replay(base, pairs)
            verdict = Verdict(counterexample is None, counterexample, original, queries)
            self._strong[record, kind] = verdict
            return verdict
        # a leaf lists its views in process order, and differs iff one of
        # them reverses a pair
        ids = program.all_ops
        slot = {i: k for k, i in enumerate(sorted(program.processes))}
        reversals = [(slot[i], ids[a], ids[b]) for i, a, b in pairs]
        seen = 0
        for leaf in iter_view_sets(program, model, base, budget):
            seen += 1
            placed = leaf.views
            if any(placed[k].positions[b] < placed[k].positions[a] for k, a, b in reversals):
                return Verdict(False, leaf, original, seen)
        return Verdict(True, None, original, seen)

    def without_edge(
        self,
        record: Record,
        process: int,
        edge: Pair,
        kind: str,
        model: str = STRONG_CAUSAL,
        *,
        max_ops: int | None = None,
        node_budget: int | None = DEFAULT_NODE_BUDGET,
    ) -> Verdict:
        """The verdict on the record with `edge` of `process` dropped:
        `verdict(record.drop(process, edge), ...)`, with the same `good`,
        `counterexample` and `original_certifies`; `enumerated` counts
        the fixpoints of the route taken.  An edge that is not a pair of
        ids in `record.edges(process)` raises `PreconditionViolated`; the
        limits are then checked as `verdict` checks them, on either route.

        Under the strong model, when the record's own verdict (computed
        once per record and kind) is good and the original views certify
        the record, and, for kind "dro", `edge` = (a, b) joins two
        operations on one variable, the answer is one replay with the
        edge reversed.  A certifying replay of the record without the
        edge either orders a before b, and then extends the record, so
        it does not differ (the record is good), or orders b before a,
        and then differs: the original views certify the record, so they
        order a before b, and for kind "dro" a and b share a variable,
        so the replay's data-race order of `process` differs too.  The
        differing replays are therefore exactly the certifying replays
        of the record with the edge reversed, and the least of them is
        the least replay above that record's bases (`_least_replay`,
        with no pair to reverse); a cyclic base or fixpoint leaves none,
        and the dropped record is good.  The original views certify the
        record, so they certify it without the edge.  Any other record
        or edge, and the causal model, take `verdict` on the dropped
        record."""
        if not is_pair(edge) or edge not in record.edges(process):
            raise PreconditionViolated(
                f"edge {edge} is not a record edge of process {process}"
            )
        program = self.program
        _check_limits(program, model, max_ops, node_budget)
        index = program.index
        a, b = edge
        if (
            model != STRONG_CAUSAL
            or not self._certified_good(record, kind)
            or kind == "dro" and not program.variable_masks[index[a]] >> index[b] & 1
        ):
            return self.verdict(
                record.drop(process, edge), kind, model, max_ops=max_ops, node_budget=node_budget
            )
        reversed_ = Record(
            tuple(
                (i, edges - {edge} | {(b, a)} if i == process else edges)
                for i, edges in record.per_process
            )
        )
        base = _base_rows(program, reversed_, self._bases)
        if base is None:
            return Verdict(True, None, True, 0)
        counterexample, queries = self._replay(base, None)
        return Verdict(counterexample is None, counterexample, True, queries)

    def race_witness(self, analysis: RaceAnalysis, process: int, edge: Pair) -> ViewSet:
        """`necessity_witness_race_record` for strongly causal views whose
        race analysis the caller already holds, an analysis of this
        state's program (else `PreconditionViolated`: the placements kept
        here are keyed on rows over its index).

        Only `edge`'s membership in the minimal race record is decided
        (`RaceAnalysis.in_record`).  Each process's base is its candidate
        record (`RaceAnalysis.candidate_rows`), with `edge` reversed for
        `process`, closed onto program order's closed rows
        (`kernels.close_onto`).  The witness is the least replay above
        these bases (`_replay`).
        Its order rows are built once, by the rows test for a strongly
        causal replay (`strongly_causal_rows`), which it must pass.  On
        the same rows it must then differ from the original data-race
        order of `process` and extend the candidate record without
        `edge`, two mask tests: that record holds the minimal record
        without `edge`, so the test is at least as strict."""
        program = self.program
        if analysis.program != program:
            raise PreconditionViolated("the race analysis is of another program")
        if not analysis.in_record(process, edge):
            raise _not_required(process, edge)
        a, b = (program.index[o] for o in edge)
        procs = sorted(program.processes)
        base = {}
        for j in procs:
            rows = analysis.candidate_rows(j)
            edges = enumerate(rows)
            if j == process:
                reduced = list(rows)
                reduced[a] &= ~(1 << b)
                edges = [*enumerate(reduced), (b, 1 << a)]
            base[j] = kernels.close_onto(program.process_index(j).po_rows, edges)
        witness, _ = self._replay(base, None)
        if witness is None:
            raise InternalInvariant(f"no replay reverses the record edge {edge}")
        rows, holds = strongly_causal_rows(witness, program)
        if not holds:
            raise _not_strongly_causal(witness, program, "completion is not strongly causal")
        orders = dict(zip(witness.processes(), rows))
        masks = program.variable_masks
        if [row & m for row, m in zip(orders[process], masks)] == analysis.dro_rows(process):
            raise InternalInvariant("witness reproduces the original data-race order")
        for j in procs:
            record = reduced if j == process else analysis.candidate_rows(j)
            if any(r & ~o for r, o in zip(record, orders[j])):
                raise InternalInvariant("witness does not certify the reduced record")
        return witness

    def _certified_good(self, record: Record, kind: str) -> bool:
        """Whether the strong verdict on the record (kept per record and
        kind by `verdict`) is good and the original views certify it."""
        verdict = self._strong.get((record, kind)) or self.verdict(record, kind)
        return verdict.good and verdict.original_certifies

    def _certifies(self, record: Record, model: str) -> bool:
        """`certifies` of the original views, for a validated record."""
        _check_model(model)
        holds = self._holds.get(model)
        if holds is None:
            check_complete(self.views, self.program)
            holds = self._holds[model] = _holds(self.views, self.program, model)
        return _extends(self.views, self.program, record) and holds


def is_good_view_record(
    views: ViewSet,
    program: Program,
    record: Record,
    model: str = STRONG_CAUSAL,
    *,
    max_ops: int | None = None,
    node_budget: int | None = DEFAULT_NODE_BUDGET,
) -> Verdict:
    """Good iff every certifying replay view set equals the original
    views.  One-shot: for many records against one view set, share a
    `Goodness`."""
    return Goodness(views, program).verdict(
        record, "views", model, max_ops=max_ops, node_budget=node_budget
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
    data-race order.  One-shot: for many records against one view set,
    share a `Goodness`."""
    return Goodness(views, program).verdict(
        record, "dro", model, max_ops=max_ops, node_budget=node_budget
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


def _not_strongly_causal(views: ViewSet, program: Program, what: str) -> InternalInvariant:
    """The error `what` for a witness that failed the rows test
    (`strongly_causal_orders`), with the violation that the full check
    finds on the execution its views derive, which fails exactly when
    that test does."""
    bad = check_strong_causal(views, derive_writes_to(views, program))
    return InternalInvariant(f"{what}: {bad}")


def extend_to_views(partials: Mapping[int, Relation], program: Program) -> ViewSet:
    """Totalise per-process partial orders into a strongly causal view set.

    Each input must be an acyclic order over its process's universe that
    respects program order and the strong causal order the partials
    already hold jointly.  Their closures are then a fixpoint of the
    strong model's replay constraints, and the result is the least
    replay above them (`_least_replay`).  Its order rows are built once
    (`strongly_causal_rows`): they must hold every input ordering, and
    then the strong causal order.
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
        if cyclic(orders[i]):
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

    views, _ = _least_replay(program, orders, None)
    if views is None:
        raise InternalInvariant("the partial orders' fixpoint admits no replay")
    finals, holds = strongly_causal_rows(views, program)
    for i, final in zip(procs, finals):
        dropped = program.pairs_of([p & ~o for p, o in zip(inputs[i], final)])
        if dropped:
            a, b = min(dropped)
            raise InternalInvariant(
                f"completion dropped the input ordering ({a}, {b}) of process {i}"
            )
    if not holds:
        raise _not_strongly_causal(views, program, "completion is not strongly causal")
    return views


def necessity_witness_view_record(
    views: ViewSet, execution: Execution, process: int, edge: Pair
) -> ViewSet:
    """A strongly causal replay certifying the record without `edge` whose
    views differ from the originals: the edge's endpoints swapped in its
    owner's view.  Views that are not strongly causal raise
    `NotStronglyCausal`.

    A call runs the strong-causality check once and works on the views'
    order rows: it computes its owner's required edges
    (`view_record.required_edges`) and hands `view_witness` a record of
    them alone, as the other views are the originals.  For many edges of
    one fixture, call `view_witness` on one minimal view record."""
    bad, sco = _strong_causal_check(views, execution)
    if bad is not None:
        raise NotStronglyCausal(str(bad))
    program = execution.program
    required = frozenset()
    if process in views.processes():
        orders = dict(zip(views.processes(), views.order_rows(program)))
        required = required_edges(program, orders, sco, views[process])
    return view_witness(views, execution, Record(((process, required),)), process, edge)


def view_witness(
    views: ViewSet, execution: Execution, record: Record, process: int, edge: Pair
) -> ViewSet:
    """`necessity_witness_view_record` for strongly causal views whose
    minimal view record the caller already holds.  The swapped views must
    pass the rows test for a strongly causal replay (`_swap`), then
    extend the record without `edge`, tested on the rows `_swap` derived:
    together, what `certifies` tests.  An edge of `record` that is not
    two consecutive operations of the view raises `PreconditionViolated`:
    no minimal view record holds one.  A view set without a view of each
    process raises `UniverseMismatch`, and a record that names a process
    the program lacks, or an edge outside its process's view, ValueError,
    as in `certifies`."""
    program = execution.program
    check_complete(views, program)
    if not is_pair(edge) or edge not in record.edges(process):
        raise _not_required(process, edge)
    _check_record_processes(program, record)
    witness, orders = _swap(views, program, process, edge)
    index = program.index
    for i, edges in record.per_process:
        pos, rows = views[i].positions, orders[i]
        for a, b in edges - {edge} if i == process else edges:
            _check_edge(i, a, b, pos)
            if rows[index[b]] >> index[a] & 1:
                raise InternalInvariant("swapped views do not certify the reduced record")
    return witness


def _not_required(process: int, edge: object) -> PreconditionViolated:
    return PreconditionViolated(f"edge {edge} is not a required record edge of process {process}")


def _swap(
    views: ViewSet, program: Program, process: int, edge: Pair
) -> tuple[ViewSet, dict[int, list[int]]]:
    """The views with `edge`, two consecutive operations a, b of the view
    of `process`, swapped there (else `PreconditionViolated`), and their
    order rows per process, which must pass the rows test for a strongly
    causal replay (`strongly_causal_orders`, else `InternalInvariant`).
    They are the original views' kept rows but for the owner's rows of a
    and b: b now precedes a and all that followed b, and a exactly what
    followed b."""
    a, b = edge
    view = views[process]
    pos = view.positions
    if a not in pos or pos.get(b) != pos[a] + 1:
        raise PreconditionViolated(
            f"record edge {edge} is not consecutive in the view of process {process}"
        )
    seq = list(view.sequence)
    idx = pos[a]
    seq[idx], seq[idx + 1] = b, a
    witness = views.replace(View(process, tuple(seq)))
    orders = dict(zip(views.processes(), views.order_rows(program)))
    ka, kb = program.index[a], program.index[b]
    old = orders[process]
    mine = orders[process] = list(old)
    mine[ka], mine[kb] = old[kb], old[kb] | 1 << ka
    if not strongly_causal_orders(program, orders.items()):
        raise _not_strongly_causal(witness, program, "swapped views are not strongly causal")
    return witness, orders


def necessity_witness_race_record(
    views: ViewSet, execution: Execution, process: int, edge: Pair
) -> ViewSet:
    """A strongly causal replay certifying the race record without `edge`
    in which `process` resolves that race the other way.

    A call runs the strong-causality check once and builds a new
    `RaceAnalysis` behind it (`RaceAnalysis._checked`), whose strong
    write order fixpoint, candidate records and the edge's own cascade
    `Goodness.race_witness` then computes.  For many edges of one
    fixture, share one `RaceAnalysis` and one `Goodness`, and call
    `Goodness.race_witness` per edge."""
    return race_witness(RaceAnalysis._checked(views, execution), process, edge)


def race_witness(analysis: RaceAnalysis, process: int, edge: Pair) -> ViewSet:
    """`Goodness.race_witness` with a fresh `Goodness`: one-shot, for
    strongly causal views whose race analysis the caller already holds."""
    return Goodness(analysis.views, analysis.program).race_witness(analysis, process, edge)
