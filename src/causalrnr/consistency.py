"""Checkers for causal, strong causal and cache consistency.

Causal consistency asks each view to respect the write-read-write order
closed with program order.  Strong causal consistency replaces WO with
the strong causal order SCO, which orders two writes as soon as the later
write's own process observed them in that order; SCO is a function of the
given view set, so the checker evaluates it once and requires every view
to respect it.

Views are placed by two engines, both on closed successor rows, each
trying the ready positions (those no remaining position reaches) in
ascending order.  `iter_view_sets`, the view-set descent, places one
view per process with `search.iter_extensions`, on the caller's closed
base rows closed with the orderings the earlier views force, and yields
every view set that respects the model, each read returning what its
owner's view makes it return; the oracle's enumeration and causal
verdicts walk it.  `_walk`, the fixpoint walk, places positions one at a
time on a fixpoint of monotone constraints (`saturate`) while it stays
acyclic: it lists the strong model's certifying replays
(`oracle.certifying_replays`), and its first leaf is
`find_explanation`'s answer, with the reads given, and `check_cache`'s,
per variable.

The checkers decide order on the views' order rows, which the view set
keeps (`ViewSet.order_rows`), and read validity by the one last-write
scan (`model.read_violation`).  `strongly_causal_orders` is the one
rows test for a strongly causal replay, whose reads return what its
views make them return, on (process, order rows) pairs.  The oracle's
certification test, its completions and its race witnesses run it on a
view set's rows (`strongly_causal_rows`), and its view witness on the
swapped rows it derives.  `read_validity` turns given reads into
successor rows and the rules that `close_reads` derives orderings from,
and `sco_summary` gives the writes that each own write of a process
must precede, the edges the descent folds into its strong-model
searches.

`saturate` is the package's one fixpoint of monotone replay constraints.
It closes each process's rows under the strong causal order the owners'
rows force on their own writes (the oracle's strong-model verdicts) and,
with the reads given, under read validity's rules (`close_reads`, also
run per variable by `check_cache`).  `find_explanation` saturates its
bases before the walk: a cyclic fixpoint settles an execution as
unexplainable with no placement, and an acyclic one orders most of an
explanation before anything is placed.
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
    check_complete,
    read_sources,
    read_violation,
    sequence_rows,
    write_read_write_rows,
)
from causalrnr.relations import Relation
from causalrnr.search import NodeBudget, iter_extensions

Rule = tuple[int, int, int]  # (read, source, competing writes mask)

CAUSAL = "causal"
STRONG_CAUSAL = "strong_causal"
CACHE = "cache"
MODELS = (CAUSAL, STRONG_CAUSAL, CACHE)

DEFAULT_MAX_OPS = 10
MAX_OPS_ENV = "CAUSAL_RNR_MAX_OPS"
DEFAULT_NODE_BUDGET = 5_000_000


def enumeration_cap(max_ops: int | None = None) -> int:
    """`max_ops` if given, else `CAUSAL_RNR_MAX_OPS` if set, else the
    default.  A `max_ops` that is not a non-negative int (a `bool`
    included), or a set variable that is not a non-negative integer,
    raises `ValueError` naming it."""
    if max_ops is not None:
        if type(max_ops) is not int or max_ops < 0:
            raise ValueError(f"max_ops must be None or a non-negative int, not {max_ops!r}")
        return max_ops
    env = os.environ.get(MAX_OPS_ENV)
    if not env:
        return DEFAULT_MAX_OPS
    try:
        cap = int(env)
    except ValueError:
        cap = -1
    if cap < 0:
        raise ValueError(f"{MAX_OPS_ENV} must be a non-negative integer, not {env!r}")
    return cap


def _check_cap(program: Program, max_ops: int | None) -> None:
    """Raise `BudgetExceeded` when the program has more operations than
    the enumeration cap (`enumeration_cap`) lets an exhaustive query walk."""
    cap = enumeration_cap(max_ops)
    if len(program.all_ops) > cap:
        raise BudgetExceeded(
            f"{len(program.all_ops)} operations exceed the enumeration cap of {cap}"
        )


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


def respects(order: list[int], po, base) -> bool:
    """Whether a view's order rows hold its process's program order rows
    `po` plus the base order `base`.  A total order respects a relation
    iff it respects the relation's closure, so nothing is closed."""
    for b, p, o in zip(base, po, order):
        if (b | p) & ~o:
            return False
    return True


def strongly_causal_rows(views: ViewSet, program: Program) -> tuple[tuple[list[int], ...], bool]:
    """The order rows of a replay's views, in view order, and whether each
    holds its process's program order plus the SCO that the rows define
    (`strongly_causal_orders`): whether the replay is strongly causal.
    Each read of a replay returns what its owner's view makes it return,
    so read validity holds by construction, and this is
    `check_strong_causal` on the execution the views derive, with no
    execution built.  Every view's rows are built, and so checked
    (`ViewSet.order_rows`), before any is tested; the caller checks that
    the set is complete."""
    orders = views.order_rows(program)
    return orders, strongly_causal_orders(program, list(zip(views.processes(), orders)))


def strongly_causal_orders(program: Program, orders) -> bool:
    """Whether each of the (process, order rows) pairs `orders`, of a
    replay's views, holds its process's program order plus the SCO that
    the pairs define (`sco_rows`).  `orders` is read twice, so it must
    be a collection."""
    sco = sco_rows(program, orders)
    for i, order in orders:
        if not respects(order, program.process_index(i).po_rows, sco):
            return False
    return True


def strong_causal_order(views: ViewSet, program: Program) -> Relation:
    """SCO: (w1, w2) for writes ordered w1 before w2 by the view of w2's
    own process.  Raw membership; no closure beyond it."""
    orders = zip(views.processes(), views.order_rows(program))
    return Relation(program.writes, program.pairs_of(sco_rows(program, orders)))


def _check_against(views: ViewSet, execution: Execution, base: list[int]) -> Violation | None:
    """The first violation of `views` against the base order `base`
    closed with each view's program order.  A read violation is the
    first invalid read, in view order, of the first view that has one
    (`read_violation`).  Order violations, tested on the views' order
    rows, name the least violated pair in sorted id order."""
    program = execution.program
    orders = views.order_rows(program)
    for view in views.views:
        bad = read_violation(view, execution)
        if bad is not None:
            return bad
    ids = program.all_ops
    for view, order in zip(views.views, orders):
        po = program.process_index(view.process).po_rows
        # the closure is built only to name the first violated pair
        if respects(order, po, base):
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
    """The first violation of causal consistency by `views`: a read that
    its view makes return another write than the execution's, or a view
    that breaks program order closed with WO.  Raises `UniverseMismatch`
    for a set without a view of each process, or a view over the wrong
    operations."""
    program = execution.program
    check_complete(views, program)
    wo = write_read_write_rows(program, execution.writes_to.items())
    return _check_against(views, execution, wo)


def check_strong_causal(views: ViewSet, execution: Execution) -> Violation | None:
    """`check_causal` with SCO in place of WO."""
    return _strong_causal_check(views, execution)[0]


def _strong_causal_check(
    views: ViewSet, execution: Execution
) -> tuple[Violation | None, list[int]]:
    """`check_strong_causal`'s verdict with the SCO rows it was reached
    on; the views' order rows are `views.order_rows(program)`."""
    program = execution.program
    check_complete(views, program)
    sco = sco_rows(program, zip(views.processes(), views.order_rows(program)))
    return _check_against(views, execution, sco), sco


def read_validity(program: Program, writes_to, reads) -> tuple[list[int], tuple[Rule, ...]]:
    """Read validity of the reads at positions `reads` over the program
    index: successor rows that put each read's source before it, and a
    read of the initial value before every write to its variable; and
    for a read with a source and a competing write to its variable, the
    rule (read, source, competing writes) that `close_reads` applies.  A
    total order holding both makes each read return its source (`_walk`)."""
    ids = program.all_ops
    index = program.index
    masks = program.variable_masks
    writes = program.writes_mask
    rows = [0] * len(ids)
    rules = []
    for r in reads:
        same = masks[r] & writes
        source = writes_to.get(ids[r])
        if source is None:
            rows[r] |= same
            continue
        s = index[source]
        rows[s] |= 1 << r
        competing = same & ~(1 << s)
        if competing:
            rules.append((r, s, competing))
    return rows, tuple(rules)


def close_reads(rows: list[int], rules: Sequence[Rule]) -> list[int] | None:
    """Closed rows closed further under read validity's forced rules, or
    None when they hold a cycle.  For a rule (r, s, competing), a read r
    that returns the write s and each competing write w:

    * w before r forces w before s, since s is the last write to the
      variable before r;
    * s before w forces r before w, since w cannot fall between them.

    Rows are acyclic on entry, so a cycle passes through a new edge and
    shows as a self bit at its source."""
    changed = True
    while changed:
        changed = False
        for r, s, competing in rules:
            gain = rows[s] & competing & ~rows[r]
            if gain:
                rows = kernels.close_onto(rows, ((r, gain),))
                if rows[r] >> r & 1:
                    return None
                changed = True
            bit = 1 << r
            rest = competing & ~rows[r]
            while rest:
                low = rest & -rest
                rest ^= low
                w = low.bit_length() - 1
                if rows[w] & bit and not rows[w] >> s & 1:
                    rows = kernels.close_onto(rows, ((w, 1 << s),))
                    if rows[w] >> w & 1:
                        return None
                    changed = True
    return rows


def saturate(
    program: Program,
    rows: Mapping[int, list[int]],
    edges: Mapping[int, tuple[tuple[int, int], ...]],
    *,
    rules: Mapping[int, Sequence[Rule]] | None = None,
    lift: bool = True,
) -> dict[int, list[int]] | None:
    """The least fixpoint of the replay constraints above each process's
    `rows` plus `edges`, or None when it holds a cycle.

    `rows` holds each process's closed rows, a fixpoint already except
    for the processes named in `edges`, whose new edges are (source,
    targets mask) pairs.  A process whose rows changed closes them under
    its read validity `rules` (`close_reads`), if any, and with `lift`
    (the strong model) lifts the SCO it forces onto every other process,
    which may change in turn, until nothing changes.  That SCO is its
    `sco_rows` alone: each write row masked to its own writes.  Only the
    nonzero such rows are lifted, and a process that forces none is not
    swept over the others.  Every constraint is monotone (each view
    extends its rows, respects the SCO its owners' rows force and makes
    each read return its given source), so an edge derived here holds
    in every replay above `rows` and `edges`: a cycle means there is
    none.  Without rules, an acyclic result totalises into a strongly
    causal replay, so the two outcomes decide the strong model's
    feasibility exactly, and
    `oracle._least_replay` places the least such replay; read validity's
    rules are not complete, so with them an acyclic result only narrows
    the search.

    Why an acyclic fixpoint totalises: orient every write pair (a, b)
    that some process k leaves unordered, one pair at a time, so that
    the SCO does not change.  Let a be a write of process p and b one of
    q != p.  A new SCO edge would be a pair (x, y) that closing the
    orientation adds, with x at or before a, y at or after b, and y an
    own write of k.  If k is p, it puts a first: program order ranks the
    own writes a and y, y before a would already order b before a, and a
    before y already orders x before y.  Symmetrically q puts b first.
    Any other k has an orientation that adds no SCO edge: if putting a
    first added (x, y) and putting b first added (x2, y2), with y after
    b and y2 after a, then y2 before y in program order already orders
    x before y, and y before y2 already orders x2 before y2.  Neither
    orientation closes a cycle, since a and b were unordered in a closed
    acyclic order, so each step keeps an acyclic fixpoint with the same
    SCO.  Once every process orders all write pairs, any linear
    extension of each order orders no new write pair, so the views
    respect the SCO they define, and their reads return what the views
    make them return.

    Rows are acyclic on entry, so a cycle passes through a new edge and
    shows as a self bit at that edge's source."""
    positions = program.write_positions
    out = dict(rows)
    owns = program.own_writes_masks
    work = []
    for i, new in edges.items():
        closed = out[i]
        for a, targets in new:
            closed = kernels.close_onto(closed, ((a, targets),))
            if closed[a] >> a & 1:
                return None
        out[i] = closed
        work.append(i)
    while work:
        i = work.pop()
        if rules is not None and rules[i]:
            closed = close_reads(out[i], rules[i])
            if closed is None:
                return None
            out[i] = closed
        if not lift:
            continue
        mine, own = out[i], owns[i]
        lifted = [(a, mine[a] & own) for a in positions if mine[a] & own]
        if not lifted:
            continue
        for j, closed in out.items():
            if j == i:
                continue
            grown = closed
            for a, targets in lifted:
                gain = targets & ~grown[a]
                if gain:
                    grown = kernels.close_onto(grown, ((a, gain),))
                    if grown[a] >> a & 1:
                        return None
            if grown is not closed:
                out[j] = grown
                if j not in work:
                    work.append(j)
    return out


def cyclic(rows: list[int]) -> bool:
    """Whether a closed relation's rows hold a cycle: a self bit."""
    for k, row in enumerate(rows):
        if row >> k & 1:
            return True
    return False


def sco_summary(program: Program, process: int, orders) -> tuple[int, ...]:
    """Strong causal order as seen by the view of `process`, given the
    order rows of fixed views: for each own write b, in `write_positions`
    order, the writes that some fixed view orders after b.  Placing b
    after one of them would add an SCO edge that view contradicts, so b
    must precede each: the descent folds the edges into its rows."""
    own = program.process_index(process).own_writes_mask
    writes = program.writes_mask
    summary = []
    while own:
        low = own & -own
        own ^= low
        b = low.bit_length() - 1
        later = 0
        for order in orders:
            later |= order[b]
        summary.append(later & writes)
    return tuple(summary)


def _wo_contribution(program: Program, view: View) -> list[int]:
    """The write-read-write edges a view forces on every other view of a
    causal replay, from its own reads' sources, as rows over the program
    index."""
    sources = [(r, s) for r, s in read_sources(view, program) if s is not None]
    return write_read_write_rows(program, sources)


def _inside(contribution: tuple[tuple[int, int], ...], meet: tuple[int, ...]) -> bool:
    """Whether a contribution's (row, mask) pairs lie inside `meet`, the
    row-wise intersection of the fixed views' orders: whether every fixed
    view respects it."""
    for k, c in contribution:
        if c & ~meet[k]:
            return False
    return True


# a placed view with its order rows and the orderings it forces on the
# views placed after it, as the nonzero (row, mask) pairs of its
# contribution, each None where the descent does not need it
Entry = tuple[View, list[int] | None, tuple[tuple[int, int], ...] | None]


def iter_view_sets(
    program: Program,
    model: str,
    base: Mapping[int, list[int]],
    budget: NodeBudget,
) -> Iterator[ViewSet]:
    """Every view set, one view per process, that extends each process's
    closed `base` rows and respects the model's order, each read
    returning what its owner's view makes it return, in lexicographic
    order of the per-process sequences.  Each set is built once, as the
    descent's tuple of views in process order (`ViewSet._ordered`), and
    its callers hand it out as it comes.

    The views are placed process by process with `search.iter_extensions`,
    each on its process's base closed with the orderings that the views
    placed before it force (`kernels.close_onto`); a closure with a
    cycle has no extension and is not searched.  Each yielded set is a
    replay by construction, so no caller checks it again
    (`oracle.certifies` and the checkers test exactly these conditions):

    * base: every view is placed under it, so it respects program order
      and whatever the caller closed in (record edges);
    * read validity: the execution a set explains is the one its views
      derive (`derive_writes_to`), whose reads return by definition the
      last preceding write in their owner's view;
    * causal model: each new view is placed under `forced`, so it
      respects the earlier views' WO contributions, and is kept only if
      its own lies inside the row-wise intersection of the earlier
      views' orders (`_inside`), that is, if they all respect it;
    * strong model: each new view respects the earlier views' SCO
      contributions through `forced`, and the edges from each own write
      to the writes of its SCO summary (`sco_summary`), folded into
      `forced`, stop it adding an SCO edge that an earlier view contradicts;
    * each view respects its own contribution: a WO edge runs from a
      read's source, which the view places before the read, to a write
      that follows the read in program order; an SCO edge is a pair of
      writes in the order the view itself places them;
    * closure: a total order respects a relation iff it respects the
      relation's closure, so respecting every contribution and the
      closed base is respecting the model's whole order.

    Nothing is placed after the last view, so it needs no order rows,
    and under the strong model no contribution either.

    Each process's extensions are searched once per distinct key: the
    process, the forced rows and, under the strong model, the earlier
    views' SCO summary.  A strong miss folds the summary in and looks the
    process up again under the folded rows, so nodes whose summaries
    differ but fold to the same rows share one search.  Within one call
    a process's base is fixed, and the extensions are those of the base
    closed with the folded rows, which either key determines; a later
    node with either key replays the stored list, in the order it was
    found, without a placement, so the sets and their order are the
    unmemoised search's.  A list is stored under both keys only once its
    search has run to the end: an early exit of the caller or a
    `BudgetExceeded` stores nothing.  No other node of a process starts
    until a node of it has run its list to the end, since the nodes
    below it are of deeper processes, so no key is looked up while its
    list is incomplete.  The causal
    model's filter reads the intersection of the earlier views' orders,
    which the key leaves out, so it runs at every node; the intersection
    is carried down the descent as `forced` is.  Each distinct sequence
    of a process builds its view, order rows and contribution once, the
    contribution as its nonzero (row, mask) pairs, and the stored lists
    share them."""
    procs = tuple(sorted(program.processes))
    if not procs:
        yield ViewSet(())
        return
    ids = program.all_ops
    size = len(ids)
    writes = program.write_positions
    strong = model == STRONG_CAUSAL
    # whether each view is kept only if the fixed views respect its own
    filters = not strong
    memo: dict[tuple, list[Entry]] = {}
    interned: dict[tuple[int, tuple[int, ...]], Entry] = {}
    # each process's own writes, in `sco_summary` order
    owns = program.own_writes_masks
    own_writes = {i: [k for k in writes if owns[i] >> k & 1] for i in procs}
    # `procs` is sorted, so every leaf's tuple is in process order
    ordered = ViewSet._ordered

    def intern(i: int, seq: tuple[int, ...], last: bool) -> Entry:
        view = View(i, tuple(ids[k] for k in seq))
        if strong and last:
            item = view, None, None
        else:
            order = None if last else sequence_rows(seq, size)
            # both contributions order writes only
            if strong:
                # `sco_rows` of this view alone: its order on its own writes
                pairs = [(k, order[k] & owns[i]) for k in writes if order[k] & owns[i]]
            else:
                rows = _wo_contribution(program, view)
                pairs = [(k, rows[k]) for k in writes if rows[k]]
            item = view, order, tuple(pairs)
        interned[i, seq] = item
        return item

    def extend(
        fixed: tuple[View, ...],
        orders: list[list[int]],
        forced: tuple[int, ...],
        meet: tuple[int, ...] | None,
    ) -> Iterator[ViewSet]:
        i = procs[len(fixed)]
        last = len(fixed) == len(procs) - 1
        summary = sco_summary(program, i, orders) if strong and orders else None
        key = (i, forced, summary)
        listed = memo.get(key)
        if listed is None:
            keys, rows = [key], forced
            if summary is not None:
                # the fold: each own write precedes the writes of its summary row
                folded = list(forced)
                for b, later in zip(own_writes[i], summary):
                    folded[b] |= later
                rows = tuple(folded)
                keys.append((i, rows))
                listed = memo.get(keys[1])
                if listed is not None:
                    memo[key] = listed
        missed = listed is None
        if missed:
            found: list[Entry] = []
            closed = kernels.close_onto(base[i], enumerate(rows))
            universe = program.process_index(i).universe_mask
            listed = () if cyclic(closed) else iter_extensions(universe, closed, budget)
        # a miss iterates the search's sequences, a hit the stored entries
        for item in listed:
            if missed:
                item = interned.get((i, item)) or intern(i, item, last)
                found.append(item)
            view, order, contribution = item
            if filters and contribution and not _inside(contribution, meet):
                continue
            if last:
                yield ordered(fixed + (view,))
                continue
            grown = forced
            if contribution:
                grown = list(forced)
                for k, c in contribution:
                    grown[k] |= c
                grown = tuple(grown)
            narrowed = tuple([m & o for m, o in zip(meet, order)]) if filters else None
            yield from extend(fixed + (view,), orders + [order], grown, narrowed)
        if missed:
            for stored in keys:
                memo[stored] = found

    # with no fixed view the intersection is every pair: -1 has every bit
    yield from extend((), [], (0,) * size, (-1,) * size if filters else None)


def _walk(
    program: Program,
    rows: Mapping,
    groups: Sequence[tuple[object, int]],
    budget: NodeBudget,
    *,
    rules: Mapping[object, Sequence[Rule]] | None = None,
    lift: bool = True,
) -> Iterator[tuple[int, ...]]:
    """Every solution above the fixpoint `rows`, in lexicographic order,
    as its positions in placement order.  `groups` holds (key, positions
    mask) pairs, placed in order: process universes, or one variable's
    positions.  `rows` maps each key to closed rows that `saturate`
    leaves unchanged under `rules` (per key, or None) and `lift`, with
    which the groups are the processes.  A solution orders each group
    totally, holds its rows, is closed under its rules and, with `lift`,
    respects the SCO that the owners' orders put on their own writes.

    A state is the fixpoint of `rows` plus the placed prefixes, each
    position preceding the rest of its group.  A group is placed
    position by position, trying the positions without a remaining
    predecessor in ascending order.  Placing c gains `gain`, the
    remaining positions c does not precede yet; it is saturated, and
    skipped if cyclic, when c is a write that gains an own write under
    `lift` (new SCO edges) or gains anything in a group with rules.
    Otherwise only row c grows, which keeps an acyclic fixpoint
    (`oracle._least_replay` gives the argument).  Each placement spends one unit of `budget`.

    * Every leaf is a solution: it orders each group totally inside an
      acyclic fixpoint.  Over read validity's rows and rules, a total
      order closed under the rules makes each read return its source, so
      no veto is needed: a read r of s follows s, and a competing write
      before r goes before s, so s is the last write before r; a read of
      the initial value precedes every write to its variable.
    * Every solution is reached: every edge `saturate` derives holds in
      every solution above its input, so a solution's rows hold each
      state along its placements, which is thus acyclic and leaves its
      next position without a remaining predecessor.
    * The first leaf is the least solution: candidates are tried in
      ascending order, group after group, so the leaves come in
      lexicographic order of the per-group sequences, each once.

    Without rules an acyclic state completes (`saturate`), so between
    two leaves the walk retreats and advances at most once through each
    position, with at most one fixpoint per candidate: polynomial delay
    (the "flashlight" scheme of Read and Tarjan, Networks 1975).  Read
    validity's rules are not complete: with them an acyclic state may
    have no completion, and the walk backtracks out of it."""
    ruled = [rules is not None and bool(rules[key]) for key, _ in groups]
    owns = [program.own_writes_masks[key] if lift else 0 for key, _ in groups]
    writes = program.writes_mask
    spend = budget.spend

    def frame(slot: int, state: Mapping, remaining: int) -> list | None:
        # the next unfinished group's frame from `slot` on, if any
        while not remaining:
            slot += 1
            if slot == len(groups):
                return None
            remaining = groups[slot][1]
        mine = state[groups[slot][0]]
        blocked = 0
        rest = remaining
        while rest:
            low = rest & -rest
            blocked |= mine[low.bit_length() - 1]
            rest ^= low
        return [slot, state, remaining, remaining & ~blocked]

    placed: list[int] = []
    # per depth: [group slot, state, remaining positions, candidates left]
    stack = [frame(-1, rows, 0)]
    if stack[0] is None:
        yield ()
        return
    while stack:
        top = stack[-1]
        slot, state, remaining, candidates = top
        if not candidates:
            stack.pop()
            if stack:
                placed.pop()
            continue
        low = candidates & -candidates
        top[3] = candidates ^ low
        c = low.bit_length() - 1
        key = groups[slot][0]
        mine = state[key]
        after = remaining ^ low
        gain = after & ~mine[c]
        if gain and ruled[slot] or writes & low and gain & owns[slot]:
            grown = saturate(program, state, {key: ((c, gain),)}, rules=rules, lift=lift)
            if grown is None:
                continue
        elif gain:
            # only row c of the group gains, by `gain`
            row = list(mine)
            row[c] |= gain
            grown = {**state, key: row}
        else:
            grown = state
        spend()
        placed.append(c)
        nxt = frame(slot, grown, after)
        if nxt is None:
            yield tuple(placed)
            placed.pop()
        else:
            stack.append(nxt)


def _views(program: Program, placed: Sequence[int]) -> ViewSet:
    """The view set listing `placed` process after process."""
    ids = program.all_ops
    views = []
    start = 0
    for i in sorted(program.processes):
        end = start + len(program.process_index(i).universe)
        views.append(View(i, tuple(ids[k] for k in placed[start:end])))
        start = end
    return ViewSet._ordered(tuple(views))


def _explanation_rows(execution: Execution, model: str) -> tuple[dict | None, dict]:
    """`explanation_base`, and read validity's rules per process."""
    program = execution.program
    index = program.index
    if model == CAUSAL:
        wo = write_read_write_rows(program, execution.writes_to.items())
    else:
        wo = [0] * len(program.all_ops)
    base, rules = {}, {}
    for i in sorted(program.processes):
        reads = [index[o] for o in program.own(i) if not program.is_write(o)]
        rows, rules[i] = read_validity(program, execution.writes_to, reads)
        po = program.process_index(i).po_rows
        base[i] = kernels.closure_rows([p | r | w for p, r, w in zip(po, rows, wo)])
        if cyclic(base[i]):
            return None, rules
    lift = model == STRONG_CAUSAL
    return saturate(program, base, {i: () for i in base}, rules=rules, lift=lift), rules


def explanation_base(execution: Execution, model: str) -> dict[int, list[int]] | None:
    """`find_explanation`'s base rows per process: program order, read
    validity and, under the causal model, WO, closed per process and
    saturated (`saturate`) under read validity's rules and, under the
    strong model, SCO; None when they hold a cycle, so that nothing
    explains the execution."""
    return _explanation_rows(execution, model)[0]


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
    returned, the first leaf of the fixpoint walk (`_walk`) over the
    saturated bases of `explanation_base`, with read validity's rules.
    Every edge the saturation derives holds in every explanation, and a
    cyclic fixpoint settles the query with no placement.

    The strong model walks every process at once, with SCO lifted.  The
    causal model walks each process alone: with the reads given, each
    view's constraints (program order, read validity, WO) are closed
    into its own base, so the explanations are every combination of
    per-process solutions, and the least combines the least of each.
    """
    if model not in (CAUSAL, STRONG_CAUSAL):
        raise ValueError(f"find_explanation supports causal/strong_causal, not {model}")
    program = execution.program
    _check_cap(program, max_ops)
    budget = NodeBudget(node_budget)
    base, rules = _explanation_rows(execution, model)
    if base is None:
        return None
    strong = model == STRONG_CAUSAL
    groups = [(i, program.process_index(i).universe_mask) for i in sorted(base)]
    if strong:
        walks = [(base, groups)]
    else:
        walks = [({i: base[i]}, [(i, mask)]) for i, mask in groups]
    placed: tuple[int, ...] = ()
    for rows, walked in walks:
        first = next(_walk(program, rows, walked, budget, rules=rules, lift=strong), None)
        if first is None:
            return None
        placed += first
    return _views(program, placed)


def check_cache(
    execution: Execution, *, node_budget: int | None = DEFAULT_NODE_BUDGET
) -> Violation | None:
    """Per-variable sequential consistency: for every variable there must
    be a total order of its operations respecting program order in which
    every read returns the last preceding write: the first leaf of the
    fixpoint walk (`_walk`) over the variable's positions, with read
    validity's rules and no SCO.  A cycle in their closure is a
    violation with no placement."""
    program = execution.program
    budget = NodeBudget(node_budget)
    masks = program.variable_masks
    for x in program.variables:
        positions = [k for k, o in enumerate(program.all_ops) if program.var_of(o) == x]
        mask = masks[positions[0]]
        reads = [k for k in positions if not program.writes_mask >> k & 1]
        rows, rules = read_validity(program, execution.writes_to, reads)
        po = [p & mask if mask >> k & 1 else 0 for k, p in enumerate(program.po_rows)]
        closed = kernels.closure_rows([p | r for p, r in zip(po, rows)])
        saturated = None if cyclic(closed) else close_reads(closed, rules)
        walk = _walk(program, {x: saturated}, [(x, mask)], budget, rules={x: rules}, lift=False)
        if saturated is None or next(walk, None) is None:
            return Violation(
                kind="cache",
                variable=x,
                message=(
                    f"no total order of the operations on {x} respects program "
                    f"order and the recorded read values"
                ),
            )
    return None
