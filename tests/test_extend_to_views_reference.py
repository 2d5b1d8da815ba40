"""`extend_to_views` and the race necessity witness against the oracle.

Both build the least strongly causal replay above closed per-process
bases (`oracle._least_replay`).  The reference is the brute-force
ground truth: the first set `enumerate_certifying` yields for the record
of the bases' pairs minus program order.  `extend_to_views` must return
it on program-order partials and on partials that are fixpoints of the
strong model's replay constraints (`consistency.saturate`), and
`race_witness` on the bases of every race record edge of the record
corpus.  `reference_extend_to_views` checks the preconditions over
id-pair `Relation`s, and both must raise the same `PreconditionViolated`
message on malformed partials.
"""

import random

import pytest

from causalrnr import oracle
from causalrnr.consistency import STRONG_CAUSAL, saturate
from causalrnr.errors import InternalInvariant, PreconditionViolated
from causalrnr.race_record import RaceAnalysis
from causalrnr.records import Record
from causalrnr.relations import Relation, has_cycle, transitive_closure
from causalrnr.view_record import minimal_view_record

from conftest import record_generated

GENERATED = record_generated()
# the reference enumeration takes 8 s on one witness of p5x3v2-s38, more
# than all the other witnesses together
WITNESS_SAMPLE = [g for g in GENERATED if g[0] != "p5x3v2-s38"]


def _extended_sco(orders, program):
    writes = set(program.writes)
    return frozenset(
        (a, b)
        for i, rel in orders.items()
        for a, b in rel.pairs
        if a in writes and b in writes and program.proc_of(b) == i
    )


def first_certifying(program, pairs):
    """The first strongly causal replay the oracle enumerates for the
    record of `pairs`, per process, minus program order."""
    record = Record.of(
        {i: set(pairs[i]) - program.process_index(i).po_pairs for i in program.processes}
    )
    return next(
        oracle.enumerate_certifying(
            program, record, STRONG_CAUSAL, max_ops=len(program.all_ops), node_budget=None
        ),
        None,
    )


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

    replay = first_certifying(program, {i: orders[i].pairs for i in procs})
    if replay is None:
        raise InternalInvariant("no replay extends the partial orders")
    return replay


def po_partials(program):
    return {
        i: Relation(program.universe_of(i), program.process_index(i).po_pairs)
        for i in program.processes
    }


def _fixpoint_partials():
    """Partials that are acyclic fixpoints of the strong model's replay
    constraints: those of the record corpus's minimal view and race
    records with their first edge dropped, and of a random record."""
    rng = random.Random(5)
    for _, execution, views in GENERATED:
        program = execution.program
        analysis = RaceAnalysis(views, program)
        records = [analysis.record(), minimal_view_record(views, execution)]
        records = [r.drop(*next(r.all_edges())) for r in records if r.size()]
        records.append(Record.of({
            i: {tuple(rng.sample(program.universe_of(i), 2))} - {
                (b, a) for a, b in program.process_index(i).po_pairs
            }
            for i in program.processes
        }))
        for record in records:
            base = oracle._base_rows(program, record)
            fixpoint = base and saturate(program, base, {i: () for i in base})
            if fixpoint:
                yield program, {
                    i: Relation(program.universe_of(i), program.pairs_of(rows))
                    for i, rows in fixpoint.items()
                }


def test_fixpoint_partials_match_reference():
    seen = 0
    for program, partials in _fixpoint_partials():
        seen += 1
        assert oracle.extend_to_views(partials, program) == reference_extend_to_views(
            partials, program
        )
    assert seen > 40


def test_race_witnesses_match_reference():
    """Each witness is the least replay above program order plus the
    candidate records, with the witnessed edge reversed."""
    seen = 0
    for _, execution, views in WITNESS_SAMPLE:
        program = execution.program
        analysis = RaceAnalysis(views, program)
        candidates = {i: program.pairs_of(analysis.candidate_rows(i)) for i in program.processes}
        for i, (a, b) in analysis.record().all_edges():
            seen += 1
            pairs = dict(candidates)
            pairs[i] = pairs[i] - {(a, b)} | {(b, a)}
            expected = first_certifying(program, pairs)
            assert oracle.race_witness(analysis, i, (a, b)) == expected, (i, (a, b))
    assert seen > 50


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
