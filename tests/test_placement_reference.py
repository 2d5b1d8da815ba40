"""The strong model's placement engine against its first formulation.

`oracle._least_replay` places the least strongly causal replay above
closed base rows, and `consistency.saturate` computes the fixpoints it
places on.  `conftest.reference_least_replay` and
`conftest.reference_saturate` are both as first written: every
placement that adds no SCO edge closes its process's rows again, and
every popped process lifts all of its SCO rows.  The package's versions
must return the same replays, fixpoints and fixpoint counts on every
base the verdicts and witnesses build, and must not change the rows
they are given.  `oracle._base_rows` and the race witness's bases are
checked against closures from scratch.
"""

import random

import pytest

from causalrnr import consistency, kernels, oracle
from causalrnr.consistency import STRONG_CAUSAL, cyclic, explanation_base, saturate
from causalrnr.race_record import RaceAnalysis
from causalrnr.records import Record
from causalrnr.view_record import minimal_view_record

from conftest import (
    mask_positions,
    record_generated,
    reference_least_replay,
    reference_saturate,
    resourced,
)

GENERATED = record_generated()


def closed_base(program, record):
    """Program order plus the record, closed from scratch per process."""
    index = program.index
    base = {}
    for i in sorted(program.processes):
        rows = list(program.process_index(i).po_rows)
        for a, b in record.edges(i):
            rows[index[a]] |= 1 << index[b]
        base[i] = kernels.closure_rows(rows)
    return base


def goodness_records(views, execution):
    """The minimal view and race records, each with every edge dropped in
    turn, and the empty record."""
    program = execution.program
    out = [Record.of({i: () for i in program.processes})]
    for record in (minimal_view_record(views, execution), RaceAnalysis(views, program).record()):
        out.append(record)
        out += [record.drop(i, edge) for i, edge in record.all_edges()]
    return out


def witness_bases(views, program):
    """Each race witness's bases: program order plus the candidate
    records, closed from scratch, with the witnessed edge reversed."""
    analysis = RaceAnalysis(views, program)
    index = program.index
    for i, edge in analysis.record().all_edges():
        a, b = (index[o] for o in edge)
        base = {}
        for j in sorted(program.processes):
            po = program.process_index(j).po_rows
            rows = [p | c for p, c in zip(po, analysis.candidate_rows(j))]
            if j == i:
                rows[a] &= ~(1 << b)
                rows[b] |= 1 << a
            base[j] = kernels.closure_rows(rows)
        yield (i, edge), base


def placement_queries():
    """(name, program, base, pairs) for every `_least_replay` query of the
    goodness verdicts and the race witnesses on the generated fixtures."""
    for name, execution, views in GENERATED:
        program = execution.program
        for k, record in enumerate(goodness_records(views, execution)):
            base = oracle._base_rows(program, record)
            if base is None:
                continue
            for kind in ("views", "dro"):
                pairs = oracle._adjacent_pairs(views, program, kind)
                yield f"{name}:{k}:{kind}", program, base, pairs
            yield f"{name}:{k}:none", program, base, None
        for (i, edge), base in witness_bases(views, program):
            yield f"{name}:witness:{i}:{edge}", program, base, None


def snapshot(base):
    return {i: list(rows) for i, rows in base.items()}


def test_least_replay_matches_reference():
    seen = found = 0
    for name, program, base, pairs in placement_queries():
        before = snapshot(base)
        got = oracle._least_replay(program, base, pairs)
        assert got == reference_least_replay(program, base, pairs), name
        assert snapshot(base) == before, name
        seen += 1
        found += got[0] is not None
    assert seen > 1000 and 0 < found < seen


def saturate_inputs():
    """(program, rows, edges) for every `saturate` call that
    `_least_replay` makes on the goodness bases of the generated
    fixtures, and for the same states plus one new edge each."""
    calls = []

    def spy(program, rows, edges, **options):
        calls.append((program, dict(rows), edges))
        return saturate(program, rows, edges, **options)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(oracle, "saturate", spy)
        for _, program, base, pairs in placement_queries():
            oracle._least_replay(program, base, pairs)
    rng = random.Random(3)
    out = list(calls)
    for program, rows, edges in calls:
        state = saturate(program, rows, edges)
        if state is None:
            continue
        i = rng.choice(sorted(state))
        positions = mask_positions(program.process_index(i).universe_mask)
        free = [
            (a, b)
            for a in positions
            for b in positions
            if a != b and not (state[i][a] >> b | state[i][b] >> a) & 1
        ]
        if free:
            a, b = rng.choice(free)
            out.append((program, state, {i: ((a, 1 << b),)}))
    return out


@pytest.mark.parametrize("lift", (True, False))
def test_saturate_matches_reference_on_placement_states(lift):
    inputs = saturate_inputs()
    cyclic_seen = 0
    for program, rows, edges in inputs:
        before = snapshot(rows)
        got = saturate(program, rows, edges, lift=lift)
        assert got == reference_saturate(program, rows, edges, lift=lift)
        assert snapshot(rows) == before
        cyclic_seen += got is None
    # only SCO lifted onto another process can close a cycle here
    assert len(inputs) > 5000 and (cyclic_seen > 0) == lift


def explanation_inputs():
    """The bases and read validity rules `explanation_base` saturates, for
    the generated fixtures and a re-sourced copy of each, under both
    models."""
    calls = []

    def spy(program, rows, edges, **options):
        calls.append((program, dict(rows), edges, options))
        return saturate(program, rows, edges, **options)

    rng = random.Random(11)
    executions = []
    for _, execution, _ in GENERATED:
        executions.append(execution)
        other = resourced(execution, rng)
        if other is not None:
            executions.append(other)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(consistency, "saturate", spy)
        for execution in executions:
            for model in (consistency.CAUSAL, STRONG_CAUSAL):
                explanation_base(execution, model)
    return calls


def test_saturate_matches_reference_with_read_rules():
    calls = explanation_inputs()
    lifted = 0
    for program, rows, edges, options in calls:
        assert options["rules"] is not None
        lifted += options["lift"]
        for lift in (True, False):
            chosen = {**options, "lift": lift}
            got = saturate(program, rows, edges, **chosen)
            assert got == reference_saturate(program, rows, edges, **chosen)
    assert len(calls) > 60 and 0 < lifted < len(calls)


def test_base_rows_is_the_closure_of_program_order_and_record():
    rng = random.Random(7)
    seen = looped = 0
    for _, execution, views in GENERATED:
        program = execution.program
        records = goodness_records(views, execution)
        for _ in range(6):
            records.append(Record.of({
                i: {tuple(rng.sample(program.universe_of(i), 2)) for _ in range(4)}
                for i in program.processes
            }))
        for record in records:
            expected = closed_base(program, record)
            got = oracle._base_rows(program, record)
            seen += 1
            if any(cyclic(rows) for rows in expected.values()):
                looped += 1
                assert got is None
            else:
                assert got == expected
    assert seen > 400 and 0 < looped < seen


def test_race_witness_bases_are_closures_from_scratch():
    """`race_witness` hands `_least_replay` the bases `witness_bases`
    closes from scratch, in process order."""
    handed = []
    least_replay = oracle._least_replay

    def spy(program, base, pairs):
        handed.append(snapshot(base))
        return least_replay(program, base, pairs)

    seen = 0
    for _, execution, views in GENERATED[:12]:
        program = execution.program
        analysis = RaceAnalysis(views, program)
        for (i, edge), base in witness_bases(views, program):
            handed.clear()
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(oracle, "_least_replay", spy)
                oracle.race_witness(analysis, i, edge)
            assert handed == [base] and list(handed[0]) == sorted(base)
            seen += 1
    assert seen > 20


def test_shared_analysis_witnesses_leave_its_rows_unchanged():
    """Every race witness built through one shared analysis equals the
    one-shot witness, and leaves the analysis's cached candidate records
    and witness bases as they were."""
    seen = 0
    for _, execution, views in GENERATED:
        program = execution.program
        analysis = RaceAnalysis(views, program)
        record = analysis.record()
        procs = sorted(program.processes)
        cached = {i: analysis.witness_base_rows(i) for i in procs}
        candidates = {i: list(analysis.candidate_rows(i)) for i in procs}
        bases = snapshot(cached)
        for i, edge in record.all_edges():
            seen += 1
            assert oracle.race_witness(analysis, i, edge) == (
                oracle.necessity_witness_race_record(views, execution, i, edge)
            )
        for i in procs:
            assert analysis.witness_base_rows(i) is cached[i]
            assert analysis.candidate_rows(i) == candidates[i]
        assert snapshot(cached) == bases
    assert seen > 50
