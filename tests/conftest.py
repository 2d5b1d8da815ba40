import pytest

from causalrnr import consistency, fixtures, kernels
from causalrnr.consistency import (
    CAUSAL,
    STRONG_CAUSAL,
    check_causal,
    check_strong_causal,
    close_reads,
    sco_rows,
)
from causalrnr.errors import InternalInvariant
from causalrnr.generator import GenParams, gen_strong_causal
from causalrnr.model import Execution, View, ViewSet, derive_writes_to, sequence_rows
from causalrnr.relations import Relation


@pytest.fixture(scope="session")
def corpus():
    """Loaded bundled fixtures keyed by name."""
    return {name: fixtures.load(name) for name in fixtures.names()}


def small_generated(count=40, max_total_ops=6):
    """A deterministic batch of small strongly causal fixtures."""
    grids = (
        dict(processes=3, ops_per_process=2, variables=1, write_ratio=1.0),
        dict(processes=3, ops_per_process=2, variables=2, write_ratio=0.6),
        dict(processes=2, ops_per_process=3, variables=1, write_ratio=0.7),
        dict(processes=2, ops_per_process=2, variables=2, write_ratio=0.4),
        dict(processes=1, ops_per_process=4, variables=2, write_ratio=0.5),
    )
    out = []
    seed = 0
    while len(out) < count:
        grid = grids[seed % len(grids)]
        execution, views = gen_strong_causal(GenParams(seed=seed, **grid))
        if len(execution.program.all_ops) <= max_total_ops:
            out.append((execution, views))
        seed += 1
    return out


def resourced(execution, rng):
    """A copy with one read's source re-drawn among the other writes of
    its variable and the initial value, or None if there is no read."""
    program = execution.program
    choices = []
    for read in program.all_ops:
        if not program.is_write(read):
            current = execution.writes_to.get(read)
            options = [None] + [
                w for w in program.writes if program.var_of(w) == program.var_of(read)
            ]
            choices += [(read, o) for o in options if o != current]
    if not choices:
        return None
    read, source = rng.choice(choices)
    writes_to = dict(execution.writes_to)
    if source is None:
        del writes_to[read]
    else:
        writes_to[read] = source
    return Execution(program, writes_to)


def reference_certifies(candidate, program, record, model):
    """Certification as first defined, sharing no code with
    `oracle.certifies`: every view orders its process's record edges as
    recorded, and the model's checker accepts the views together with
    the execution they derive.  The whole record is checked first, with
    the oracle's messages: a process the program lacks, then per process
    in order and its edges in sorted order, a self-loop or a pair outside
    the process's universe; then the model."""
    for i in record.processes:
        if i not in program.processes:
            raise ValueError(f"record names process {i}, which the program lacks")
    for i in sorted(program.processes):
        universe = program.universe_of(i)
        for a, b in sorted(record.edges(i)):
            if a == b:
                raise ValueError(
                    f"record for process {i} is malformed: "
                    f"self-loop ({a}, {a}) is not representable"
                )
            if a not in universe or b not in universe:
                raise ValueError(
                    f"record for process {i} is malformed: pair ({a}, {b}) escapes the universe"
                )
    if model not in (CAUSAL, STRONG_CAUSAL):
        raise ValueError(f"unsupported replay model {model!r}")
    for i in sorted(program.processes):
        pos = candidate[i].positions
        if any(pos[a] > pos[b] for a, b in record.edges(i)):
            return False
    derived = derive_writes_to(candidate, program)
    check = check_causal if model == CAUSAL else check_strong_causal
    return check(candidate, derived) is None


def close_with(closed, a, targets):
    """The closure of closed rows plus an edge from `a` to every element
    of the mask `targets`: every row that is a or reaches a gains the
    targets and everything they reach.  Cycles show as self bits, as in
    `closure_rows`.  The references' own incremental closure, so that
    none of them runs on `kernels.close_onto`, which they check."""
    gain = targets
    rest = targets
    while rest:
        low = rest & -rest
        gain |= closed[low.bit_length() - 1]
        rest ^= low
    bit = 1 << a
    return [r | gain if k == a or r & bit else r for k, r in enumerate(closed)]


def reference_saturate(program, rows, edges, *, rules=None, lift=True):
    """`consistency.saturate` as first written: each popped process lifts
    all of its SCO rows (`sco_rows`) onto every other process."""
    positions = program.write_positions
    out = dict(rows)
    work = []
    for i, new in edges.items():
        closed = out[i]
        for a, targets in new:
            closed = close_with(closed, a, targets)
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
                    grown = close_with(grown, a, gain)
                    if grown[a] >> a & 1:
                        return None
            if grown is not closed:
                out[j] = grown
                if j not in work:
                    work.append(j)
    return out


def _reference_related(rows, a, b):
    return bool((rows[a] >> b | rows[b] >> a) & 1)


def reference_least_replay(program, base, pairs):
    """`oracle._least_replay` as first written: each placement that adds no
    SCO edge closes the new edges over every row of its process
    (`close_with`)."""
    queries = 0

    def fixpoint(rows, edges):
        nonlocal queries
        queries += 1
        return reference_saturate(program, rows, edges)

    def reverses(rows):
        return any(rows[i][b] >> a & 1 for i, a, b in pairs)

    # per (process, b), the a of every pair (a, b)
    into = {}
    for i, a, b in pairs or ():
        into[i, b] = into.get((i, b), 0) | 1 << a

    def flip(rows, first):
        """A pair of `pairs` that `rows` leaves unordered and can reverse,
        trying `first` before the others, with the reversal's fixpoint."""
        order = pairs if first is None else [first] + [p for p in pairs if p != first]
        for i, a, b in order:
            if _reference_related(rows[i], a, b):
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
                    state = fixpoint(rows, {i: ((c, gain),)})
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
                        state[i] = close_with(rows[i], c, gain)
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


def mask_positions(mask):
    """The bit positions of `mask`, ascending."""
    return tuple(k for k in range(mask.bit_length()) if mask >> k & 1)


def predecessors(rows, onto=None):
    """Predecessor masks for `reference_extensions` from successor rows
    over the index (bit j of row k: k goes before j), closed first, or
    added onto `onto`, rows already closed, one source row at a time
    (`close_with`); None when the result holds a cycle, which shows as a
    self bit of the closure.  The transposition keeps the reference on
    predecessor masks, a formulation independent of the package's
    successor-row search."""
    if onto is None:
        closed = kernels.closure_rows(list(rows))
    else:
        closed = list(onto)
        for a, row in enumerate(rows):
            closed = close_with(closed, a, row)
    preds = [0] * len(closed)
    for j, row in enumerate(closed):
        if row >> j & 1:
            return None
        bit = 1 << j
        while row:
            low = row & -row
            preds[low.bit_length() - 1] |= bit
            row ^= low
    return preds


def reference_extensions(positions, preds, vetoes=None, budget=None):
    """The placement engine as it ran with vetoes: every ordering of
    `positions` that places each position after its `preds` mask and
    against none of its `vetoes`, in lexicographic order.  `vetoes[k]` is
    a tuple of `(need, unless)` mask pairs: position k may not be placed
    while some position of `need` is placed and no position of `unless`
    is.  Without vetoes it gives `search.iter_extensions`' sequences on
    the closed successor rows the masks transpose; the references that
    still prune with vetoes run it."""
    n = len(positions)
    if n == 0:
        yield ()
        return
    candidates = [
        (k, 1 << k, preds[k], vetoes[k] if vetoes is not None else ())
        for k in positions
    ]
    spend = budget.spend if budget is not None else None
    placed = 0
    seq = []
    cursor = [0]  # per depth, the index of the next candidate to try
    while cursor:
        c = cursor[-1]
        while c < n:
            k, bit, need, vetoed = candidates[c]
            c += 1
            if placed & bit or need & ~placed:
                continue
            if vetoed and any(
                placed & v_need and not placed & unless for v_need, unless in vetoed
            ):
                continue
            if spend is not None:
                spend()
            if len(seq) == n - 1:
                seq.append(k)
                yield tuple(seq)
                seq.pop()
                continue
            cursor[-1] = c
            placed |= bit
            seq.append(k)
            cursor.append(0)
            break
        else:
            cursor.pop()
            if seq:
                placed ^= 1 << seq.pop()


def sco_vetoes(program, process, orders):
    """SCO as vetoes on the view of `process`, from the fixed views' order
    rows: an own write b is vetoed while any write that some fixed view
    orders after b is placed."""
    vetoes = [()] * len(program.all_ops)
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


def _respects(order, contribution):
    return not any(c & ~o for c, o in zip(contribution, order))


def reference_view_sets(program, model, base, budget, *, reads_given=False, vetoes=None):
    """`consistency.iter_view_sets` without its memo: every node runs its
    own search.  With `reads_given`, the descent as `find_explanation` once
    ran it: the caller closed read validity (and, under the causal model,
    WO) into every base and passes read validity's vetoes, and under the
    causal model no view constrains the others."""
    procs = tuple(sorted(program.processes))
    if not procs:
        yield ViewSet.of([])
        return
    ids = program.all_ops
    strong = model == STRONG_CAUSAL
    contributes = strong or not reads_given

    def extend(fixed, orders, forced):
        i = procs[len(fixed)]
        preds = predecessors(forced, onto=base[i])
        if preds is None:
            return
        placing = vetoes[i] if vetoes is not None else None
        if strong and orders:
            sco = sco_vetoes(program, i, orders)
            placing = sco if placing is None else [v + s for v, s in zip(placing, sco)]
        last = len(fixed) == len(procs) - 1
        positions = mask_positions(program.process_index(i).universe_mask)
        for seq in reference_extensions(positions, preds, placing, budget):
            view = View(i, tuple(ids[k] for k in seq))
            if contributes and not strong:
                contribution = consistency._wo_contribution(program, view)
                if not all(_respects(o, contribution) for o in orders):
                    continue
            if last:
                yield ViewSet.of(fixed + [view])
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


@pytest.fixture(scope="session")
def generated_corpus():
    return small_generated()


# (processes, ops_per_process, variables, write_ratio, accepted operation
# counts, fixtures); the last three are the record benchmark's templates
TEMPLATES = (
    (3, 3, 1, 0.7, range(6, 10), 6),
    (3, 4, 2, 0.6, range(8, 12), 6),
    (4, 4, 2, 0.5, range(12, 15), 4),
    (5, 3, 2, 0.5, range(12, 15), 4),
    (6, 3, 3, 0.5, range(12, 15), 4),
)


def record_generated():
    """Named strongly causal fixtures of 6-14 operations."""
    out = []
    for processes, per, variables, ratio, sizes, count in TEMPLATES:
        seed, found = 0, 0
        while found < count:
            execution, views = gen_strong_causal(
                GenParams(seed, processes, per, variables, ratio)
            )
            if len(execution.program.all_ops) in sizes:
                out.append((f"p{processes}x{per}v{variables}-s{seed}", execution, views))
                found += 1
            seed += 1
    return out


# A relation helper that only the tests use, as a plain reference.


def disjoint_union(*relations):
    """Plain edge union, no closure."""
    universe = sorted(set().union(*(r.universe for r in relations)))
    pairs = frozenset().union(*(r.pairs for r in relations))
    return Relation(tuple(universe), pairs)
