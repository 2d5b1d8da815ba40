"""The row-based `extend_to_views` against the Relation-based reference.

`reference_extend_to_views` is the completion as it was written over
id-pair `Relation`s, re-closing the whole order for every added pair.
Both must return the same `ViewSet` on the partial orders the race
necessity witnesses build and on program-order-only partials, and raise
the same `PreconditionViolated` message on malformed partials.
"""

import pytest

from causalrnr import oracle
from causalrnr.consistency import check_strong_causal
from causalrnr.errors import InternalInvariant, PreconditionViolated
from causalrnr.model import READ, View, ViewSet, derive_writes_to
from causalrnr.race_record import minimal_race_record
from causalrnr.relations import Relation, has_cycle, transitive_closure

from conftest import record_generated

GENERATED = record_generated()


def _extended_sco(orders, program):
    writes = set(program.writes)
    return frozenset(
        (a, b)
        for i, rel in orders.items()
        for a, b in rel.pairs
        if a in writes and b in writes and program.proc_of(b) == i
    )


def _own_sco(rel, program, process):
    writes = set(program.writes)
    return frozenset(
        (a, b)
        for a, b in rel.pairs
        if a in writes and b in writes and program.proc_of(b) == process
    )


def _related(rel, a, b):
    return (a, b) in rel.pairs or (b, a) in rel.pairs


def _close_with(rel, pair):
    return transitive_closure(Relation(rel.universe, rel.pairs | {pair}))


def reference_extend_to_views(partials, program):
    procs = tuple(sorted(program.processes))
    if set(partials) != set(procs):
        raise PreconditionViolated("one partial order per process is required")
    orders = {}
    for i in procs:
        rel = partials[i]
        if rel.universe != program.universe_of(i):
            raise PreconditionViolated(
                f"partial order of process {i} is not over its own operations "
                f"plus all writes"
            )
        if has_cycle(rel):
            raise PreconditionViolated(f"partial order of process {i} has a cycle")
        orders[i] = transitive_closure(rel)
    committed = _extended_sco(orders, program)
    for i in procs:
        need = committed | program.process_index(i).po_pairs
        missing = sorted(need - orders[i].pairs)
        if missing:
            a, b = missing[0]
            raise PreconditionViolated(
                f"partial order of process {i} does not respect the required "
                f"ordering ({a}, {b})"
            )

    cross = sorted(
        (a, b)
        for a in program.writes
        for b in program.writes
        if program.proc_of(a) != program.proc_of(b)
        and (program.proc_of(a), a) < (program.proc_of(b), b)
    )
    for a, b in cross:
        before = _extended_sco(orders, program)
        pa, pb = program.proc_of(a), program.proc_of(b)
        if not _related(orders[pa], a, b):
            orders[pa] = _close_with(orders[pa], (a, b))
        if not _related(orders[pb], a, b):
            orders[pb] = _close_with(orders[pb], (b, a))
        for k in procs:
            if k in (pa, pb) or _related(orders[k], a, b):
                continue
            keep = _close_with(orders[k], (a, b))
            if _own_sco(keep, program, k) <= _own_sco(orders[k], program, k):
                orders[k] = keep
            else:
                flip = _close_with(orders[k], (b, a))
                if not _own_sco(flip, program, k) <= _own_sco(orders[k], program, k):
                    raise InternalInvariant("both orientations force a new ordering")
                orders[k] = flip
        if any(has_cycle(orders[k]) for k in procs):
            raise InternalInvariant("an ordering made an order cyclic")
        if _extended_sco(orders, program) != before:
            raise InternalInvariant("an ordering changed the strong causal order")

    for i in procs:
        for r in program.own(i):
            if program.ops[r].kind != READ:
                continue
            for w in program.writes:
                if not _related(orders[i], w, r):
                    orders[i] = _close_with(orders[i], (w, r))

    out = []
    for i in procs:
        if not orders[i].is_total_order():
            raise InternalInvariant(f"completion left process {i}'s order partial")
        out.append(View(i, orders[i].as_sequence()))
    views = ViewSet.of(out)
    derived = derive_writes_to(views, program)
    if check_strong_causal(views, derived) is not None:
        raise InternalInvariant("completion is not strongly causal")
    return views


@pytest.fixture(scope="module")
def witness_partials():
    """The partial orders every race necessity witness of the generated
    fixtures hands to the rows completion, as `Relation`s."""
    captured = []
    complete = oracle._complete

    def capture(partials, program):
        partials = list(partials)
        captured.append((
            {
                i: Relation(program.universe_of(i), program.pairs_of(rows))
                for i, rows in partials
            },
            program,
        ))
        return complete(partials, program)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(oracle, "_complete", capture)
        for _, execution, views in GENERATED:
            record = minimal_race_record(views, execution)
            for i, edge in record.all_edges():
                oracle.necessity_witness_race_record(views, execution, i, edge)
    return captured


def po_partials(program):
    return {
        i: Relation(program.universe_of(i), program.process_index(i).po_pairs)
        for i in program.processes
    }


def test_witness_partials_match_reference(witness_partials):
    assert len(witness_partials) > 50
    for partials, program in witness_partials:
        assert oracle.extend_to_views(partials, program) == reference_extend_to_views(
            partials, program
        )


def test_program_order_partials_match_reference(corpus):
    cases = [c.program for c in corpus.values()]
    cases += [execution.program for _, execution, _ in GENERATED]
    for program in cases:
        partials = po_partials(program)
        assert oracle.extend_to_views(partials, program) == reference_extend_to_views(
            partials, program
        )


def _message(complete, partials, program):
    with pytest.raises(PreconditionViolated) as caught:
        complete(partials, program)
    return str(caught.value)


def test_same_precondition_messages(corpus):
    program = corpus["write-race"].program
    named = []
    for i in program.processes:
        # a cyclic partial order for one process
        cyclic = po_partials(program)
        cyclic[i] = Relation(program.universe_of(i), {("w1", "w2"), ("w2", "w1")})
        # a partial order that holds a strong causal ordering the other
        # process's empty partial misses
        j = next(p for p in program.processes if p != i)
        missing = {
            i: Relation(program.universe_of(i), {("w2", "w1")} if i == 1 else {("w1", "w2")}),
            j: Relation.empty(program.universe_of(j)),
        }
        # a cycle and, in the other process, a universe without w2: the
        # reference checks process by process, so the lower process's
        # fault is named
        both = dict(cyclic)
        both[j] = Relation(("w1",), ())
        for partials in (cyclic, missing, both):
            expected = _message(reference_extend_to_views, partials, program)
            assert _message(oracle.extend_to_views, partials, program) == expected
        named.append(_message(oracle.extend_to_views, both, program))
    # process 1's fault comes first: a cycle once, a wrong universe once
    assert "process 1 has a cycle" in named[0]
    assert "process 1 is not over its own operations" in named[1]
    assert "has a cycle" in _message(oracle.extend_to_views, cyclic, program)
    assert "does not respect the required ordering" in _message(
        oracle.extend_to_views, missing, program
    )
