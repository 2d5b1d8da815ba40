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
(shared with `check_cache`) and `sco_summary`, the writes that each own
write of a process may not be placed after.

`saturate` is the package's one fixpoint of monotone replay constraints.
It closes each process's rows under the strong causal order the owners'
rows force on their own writes (the oracle's strong-model verdicts) and,
with the reads given, under read validity's forced rules (`close_reads`,
also run per variable by `check_cache`).  `find_explanation` saturates
its bases before the descent: a cyclic fixpoint settles an execution as
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
    order_rows,
    read_sources,
    read_violation,
    sequence_rows,
    write_read_write_rows,
)
from causalrnr.relations import Relation
from causalrnr.search import NodeBudget, Veto, iter_extensions, predecessors

Rule = tuple[int, int, int]  # (read, source, competing writes mask)

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
    return _strong_causal_check(views, execution)[0]


def _strong_causal_check(
    views: ViewSet, execution: Execution
) -> tuple[Violation | None, list[list[int]], list[int]]:
    """`check_strong_causal`'s verdict with the rows it was reached on:
    the views' order rows, in view order, and the SCO rows."""
    program = execution.program
    orders = [order_rows(v, program) for v in views.views]
    sco = sco_rows(program, zip(views.processes(), orders))
    return _check_against(views, execution, orders, sco), orders, sco


def read_validity(
    program: Program, writes_to, reads
) -> tuple[list[int], list[tuple[Veto, ...]], tuple[Rule, ...]]:
    """Read validity of the reads at positions `reads` as placement
    constraints over the program index: successor rows and vetoes under
    which each read is placed with its source as the last placed write to
    its variable, or with none placed if it read the initial value, and
    the rules `close_reads` derives orderings from.

    A read's source goes before it, and every other write to the variable
    is vetoed while the source is placed and the read is not; a read of
    the initial value goes before every write to its variable.  A read
    with a source and a competing write to its variable has the rule
    (read, source, competing writes)."""
    ids = program.all_ops
    index = program.index
    masks = program.variable_masks
    writes = program.writes_mask
    rows = [0] * len(ids)
    vetoes: list[tuple[Veto, ...]] = [()] * len(ids)
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
        veto = (1 << s, 1 << r)
        while competing:
            low = competing & -competing
            vetoes[low.bit_length() - 1] += (veto,)
            competing ^= low
    return rows, vetoes, tuple(rules)


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
                rows = kernels.close_with(rows, r, gain)
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
                    rows = kernels.close_with(rows, w, 1 << s)
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
    (the strong model) lifts its own-write rows through SCO (`sco_rows`)
    onto every other process, which may change in turn, until nothing
    changes.  Every constraint is monotone (each view extends its rows,
    respects the SCO its owners' rows force and makes each read return
    its given source), so an edge derived here holds in every replay
    above `rows` and `edges`: a cycle means there is none.  Without
    rules, an acyclic result totalises into a strongly causal replay, so
    the two outcomes decide the strong model's feasibility exactly, and
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
        if rules is not None and rules[i]:
            closed = close_reads(out[i], rules[i])
            if closed is None:
                return None
            out[i] = closed
        if not lift:
            continue
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


def cyclic(rows: list[int]) -> bool:
    """Whether a closed relation's rows hold a cycle: a self bit."""
    return any((row >> k) & 1 for k, row in enumerate(rows))


def sco_summary(program: Program, process: int, orders) -> tuple[int, ...]:
    """Strong causal order as seen by the view of `process`, given the
    order rows of fixed views: for each own write b, in `write_positions`
    order, the writes that some fixed view orders after b.  Placing b
    after one of them would add an SCO edge that view contradicts, so
    each is a veto on b (`_sco_vetoes`)."""
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


def _sco_vetoes(
    program: Program, process: int, summary: tuple[int, ...]
) -> list[tuple[Veto, ...]]:
    """`sco_summary` as vetoes on the view of `process`: an own write b is
    vetoed while any write of its summary row is placed."""
    vetoes: list[tuple[Veto, ...]] = [()] * len(program.all_ops)
    own = program.process_index(process).own_writes_mask
    for later in summary:
        low = own & -own
        own ^= low
        if later:
            vetoes[low.bit_length() - 1] = ((later, 0),)
    return vetoes


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


Leaf = tuple[list[View], list[list[int]]]
# a placed view with its order rows and the orderings it forces on the
# views placed after it, as the nonzero (row, mask) pairs of its
# contribution, each None where the descent does not need it
Entry = tuple[View, list[int] | None, tuple[tuple[int, int], ...] | None]


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
      is kept only if every earlier view respects its own, that is, if
      its contribution lies inside the row-wise intersection of the
      earlier views' orders (`_inside`): a pair lies in every order iff
      it lies in their intersection;
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
    and under the strong model no contribution either.

    Each process's extensions are searched once per distinct key: the
    process, the forced rows and, under the strong model, the earlier
    views' SCO summary (`sco_summary`).  The summary holds exactly the
    SCO vetoes' masks, one per own write, so it determines the vetoes,
    which are built from it only when the search runs.  Within one call
    a process's base and read validity's vetoes are fixed, so the key
    determines the extensions; a later node with the same key replays
    the stored list, in the order it was found, without a placement, so
    the sets, their order and the first of them are the unmemoised
    search's.  A list is stored only once its search has run to the end:
    an early exit of the caller or a `BudgetExceeded` stores nothing.  A
    key repeats only in another branch of a shallower process, which
    starts after the list is complete.  The causal model's filter reads
    the intersection of the earlier views' orders, which the key leaves
    out, so it runs at every node; the intersection is carried down the
    descent as `forced` is.  Each distinct sequence of a process builds
    its view, order rows and contribution once, the contribution as its
    nonzero (row, mask) pairs, and the stored lists share them."""
    procs = tuple(sorted(program.processes))
    if not procs:
        yield [], []
        return
    ids = program.all_ops
    size = len(ids)
    writes = program.write_positions
    strong = model == STRONG_CAUSAL
    # whether each view forces orderings on the views placed after it
    contributes = strong or not reads_given
    # whether each view is kept only if the fixed views respect its own
    filters = contributes and not strong
    memo: dict[tuple, list[Entry]] = {}
    interned: dict[tuple[int, tuple[int, ...]], Entry] = {}

    def intern(i: int, seq: tuple[int, ...], last: bool) -> Entry:
        view = View(i, tuple(ids[k] for k in seq))
        if not contributes or (strong and last):
            item = view, None, None
        else:
            order = None if last else sequence_rows(seq, size)
            # both contributions order writes only
            if strong:
                # `sco_rows` of this view alone: its order on its own writes
                own = program.process_index(i).own_writes_mask
                pairs = [(k, order[k] & own) for k in writes if order[k] & own]
            else:
                rows = _wo_contribution(program, view)
                pairs = [(k, rows[k]) for k in writes if rows[k]]
            item = view, order, tuple(pairs)
        interned[i, seq] = item
        return item

    def search(
        i: int, forced: tuple[int, ...], summary: tuple[int, ...] | None
    ) -> Iterator[tuple[int, ...]]:
        preds = predecessors(forced, onto=base[i])
        if preds is None:
            return iter(())
        placing = vetoes[i] if vetoes is not None else None
        if summary is not None:
            sco = _sco_vetoes(program, i, summary)
            placing = sco if placing is None else [v + s for v, s in zip(placing, sco)]
        positions = program.process_index(i).positions
        return iter_extensions(positions, preds, placing, budget)

    def extend(
        fixed: list[View],
        orders: list[list[int]],
        forced: tuple[int, ...],
        meet: tuple[int, ...] | None,
    ) -> Iterator[Leaf]:
        i = procs[len(fixed)]
        last = len(fixed) == len(procs) - 1
        summary = sco_summary(program, i, orders) if strong and orders else None
        key = (i, forced, summary)
        listed = memo.get(key)
        missed = listed is None
        if missed:
            found: list[Entry] = []
            listed = search(i, forced, summary)
        # a miss iterates the search's sequences, a hit the stored entries
        for item in listed:
            if missed:
                item = interned.get((i, item)) or intern(i, item, last)
                found.append(item)
            view, order, contribution = item
            if filters and contribution and not _inside(contribution, meet):
                continue
            if last:
                yield fixed + [view], orders
            elif not contributes:
                yield from extend(fixed + [view], orders, forced, meet)
            else:
                grown = forced
                if contribution:
                    grown = list(forced)
                    for k, c in contribution:
                        grown[k] |= c
                    grown = tuple(grown)
                narrowed = tuple([m & o for m, o in zip(meet, order)]) if filters else None
                yield from extend(fixed + [view], orders + [order], grown, narrowed)
        if missed:
            memo[key] = found

    # with no fixed view the intersection is every pair: -1 has every bit
    yield from extend([], [], (0,) * size, (-1,) * size if filters else None)


def explanation_base(
    execution: Execution, model: str
) -> tuple[dict[int, list[int]] | None, dict[int, list[tuple[Veto, ...]]]]:
    """`find_explanation`'s constraints: each process's base rows, and
    read validity's vetoes.  The base is program order, read validity
    and, under the causal model, WO, closed per process and saturated
    (`saturate`) under read validity's rules and, under the strong model,
    SCO; None when it holds a cycle, so that nothing explains the
    execution."""
    program = execution.program
    index = program.index
    if model == CAUSAL:
        wo = write_read_write_rows(program, execution.writes_to.items())
    else:
        wo = [0] * len(program.all_ops)
    base, vetoes, rules = {}, {}, {}
    for i in sorted(program.processes):
        reads = [index[o] for o in program.own(i) if not program.is_write(o)]
        rows, vetoes[i], rules[i] = read_validity(program, execution.writes_to, reads)
        po = program.process_index(i).po_rows
        base[i] = kernels.closure_rows([p | r | w for p, r, w in zip(po, rows, wo)])
        if cyclic(base[i]):
            return None, vetoes
    fixpoint = saturate(
        program, base, {i: () for i in base}, rules=rules, lift=model == STRONG_CAUSAL
    )
    return fixpoint, vetoes


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
    with the reads given, over the saturated bases of `explanation_base`
    and with read validity's vetoes.  Every edge the saturation derives
    holds in every explanation, so the explanations, and the first of
    them, are those of the unsaturated bases; a cyclic fixpoint settles
    the query with no placement.
    """
    if model not in (CAUSAL, STRONG_CAUSAL):
        raise ValueError(f"find_explanation supports causal/strong_causal, not {model}")
    program = execution.program
    cap = enumeration_cap(max_ops)
    if len(program.all_ops) > cap:
        raise BudgetExceeded(
            f"{len(program.all_ops)} operations exceed the cap of {cap}"
        )
    base, vetoes = explanation_base(execution, model)
    if base is None:
        return None
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
    every read returns the last preceding write.  Each variable's program
    order and read validity are closed under read validity's rules
    (`close_reads`) before the search; a cycle is a violation with no
    placement."""
    program = execution.program
    budget = NodeBudget(node_budget)
    masks = program.variable_masks
    for x in program.variables:
        positions = tuple(
            k for k, o in enumerate(program.all_ops) if program.var_of(o) == x
        )
        mask = masks[positions[0]]
        reads = [k for k in positions if not program.writes_mask >> k & 1]
        rows, vetoes, rules = read_validity(program, execution.writes_to, reads)
        po = [p & mask if mask >> k & 1 else 0 for k, p in enumerate(program.po_rows)]
        closed = kernels.closure_rows([p | r for p, r in zip(po, rows)])
        saturated = None if cyclic(closed) else close_reads(closed, rules)
        witness = None
        if saturated is not None:
            preds = predecessors((), onto=saturated)
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
