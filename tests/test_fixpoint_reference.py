"""The strong model's fixpoint decider against the brute-force oracle.

Under the strong model, `is_good_view_record` and `is_good_race_record`
decide by `oracle._saturate` instead of walking replays.  The reference
here is `enumerate_certifying`: a record is good iff no set it yields
differs from the original views (kind "views") or in some data-race
order (kind "dro"), and the counterexample must be the first such set.
`_saturate` itself must decide exactly whether any replay exists, and an
acyclic fixpoint must totalise into a replay that certifies the record.
"""

import random

import pytest

from causalrnr import oracle
from causalrnr.consistency import STRONG_CAUSAL
from causalrnr.generator import GenParams, gen_program, gen_strong_causal
from causalrnr.model import data_race_rows
from causalrnr.race_record import minimal_race_record
from causalrnr.records import Record
from causalrnr.relations import Relation
from causalrnr.view_record import minimal_view_record

from conftest import small_generated

FIXTURES = small_generated()
JUDGES = {"views": oracle.is_good_view_record, "dro": oracle.is_good_race_record}
MINIMAL = {"views": minimal_view_record, "dro": minimal_race_record}


def _random_record(program, rng, most=3):
    """Up to `most` random edges per process over its universe, none
    against program order; the edges may still form a cycle, alone or
    with the strong causal order they force."""
    edges = {}
    for p in program.processes:
        universe = program.universe_of(p)
        po = program.process_index(p).po_pairs
        count = rng.randint(0, most) if len(universe) > 1 else 0
        pairs = [tuple(rng.sample(universe, 2)) for _ in range(count)]
        edges[p] = {(a, b) for a, b in pairs if (b, a) not in po}
    return Record.of(edges)


def _first_differing(views, program, record, kind):
    dro = {i: data_race_rows(views[i], program) for i in program.processes}
    for candidate in oracle.enumerate_certifying(
        program, record, STRONG_CAUSAL, node_budget=None
    ):
        if kind == "views":
            differs = candidate.sort_key() != views.sort_key()
        else:
            differs = any(
                data_race_rows(candidate[i], program) != dro[i] for i in program.processes
            )
        if differs:
            return candidate
    return None


def _records(execution, views, kind, rng):
    minimal = MINIMAL[kind](views, execution)
    program = execution.program
    out = [minimal, Record.of({p: frozenset() for p in program.processes})]
    out += [minimal.drop(i, edge) for i, edge in minimal.all_edges()]
    out += [_random_record(program, rng) for _ in range(3)]
    return out


def _outcomes():
    rng = random.Random(7)
    for k, (execution, views) in enumerate(FIXTURES):
        for kind in ("views", "dro"):
            for record in _records(execution, views, kind, rng):
                yield k, kind, execution, views, record


OUTCOMES = list(_outcomes())


@pytest.mark.parametrize("k", range(len(FIXTURES)))
def test_verdicts_match_the_first_differing_enumerated_set(k):
    for _, kind, execution, views, record in (o for o in OUTCOMES if o[0] == k):
        program = execution.program
        verdict = JUDGES[kind](views, program, record, STRONG_CAUSAL)
        expected = _first_differing(views, program, record, kind)
        assert verdict.good == (expected is None), (kind, record)
        if expected is not None:
            assert verdict.counterexample.sort_key() == expected.sort_key(), (kind, record)
        assert verdict.original_certifies == oracle.certifies(
            views, program, record, STRONG_CAUSAL
        )


def test_both_verdicts_occur_for_both_kinds():
    seen = set()
    for _, kind, execution, views, record in OUTCOMES:
        verdict = JUDGES[kind](views, execution.program, record, STRONG_CAUSAL)
        seen.add((kind, verdict.good))
    assert seen == {("views", True), ("views", False), ("dro", True), ("dro", False)}


def _programs(count=60):
    """Programs of 7-10 operations."""
    out = []
    seed = 0
    grids = ((3, 3, 2, 0.6), (2, 5, 2, 0.5), (4, 3, 1, 0.5), (3, 4, 2, 0.6))
    while len(out) < count:
        program = gen_program(GenParams(seed, *grids[seed % len(grids)]))
        if 7 <= len(program.all_ops) <= 10:
            out.append(program)
        seed += 1
    return out


def test_saturate_decides_whether_any_replay_exists():
    rng = random.Random(11)
    outcomes = set()
    for program in _programs():
        for _ in range(4):
            record = _random_record(program, rng, most=4)
            exists = next(
                oracle.enumerate_certifying(program, record, STRONG_CAUSAL, node_budget=None),
                None,
            ) is not None
            base = oracle._base_rows(program, record)
            fixpoint = None
            if base is not None:
                fixpoint = oracle._saturate(program, base, {i: () for i in base})
            assert (fixpoint is not None) == exists, record
            outcomes.add((base is None, exists))
            if fixpoint is not None:
                partials = {
                    i: Relation(program.universe_of(i), program.pairs_of(rows))
                    for i, rows in fixpoint.items()
                }
                replay = oracle.extend_to_views(partials, program)
                assert oracle.certifies(replay, program, record, STRONG_CAUSAL)
    # replays exist, and some records without one have an acyclic base
    assert {(False, True), (False, False), (True, False)} == outcomes


SEED_110 = GenParams(seed=110, processes=5, ops_per_process=3, variables=2, write_ratio=0.5)


@pytest.mark.parametrize("kind", ["views", "dro"])
def test_seed_110_verdicts_settle(kind):
    # 15 operations, 10 writes: past the enumeration cap, and the minimal
    # view record's single replay took the replay descent 20M placements
    execution, views = gen_strong_causal(SEED_110)
    program = execution.program
    assert len(program.all_ops) == 15
    minimal = MINIMAL[kind](views, execution)
    judge = JUDGES[kind]
    verdict = judge(views, program, minimal)
    assert verdict.good and verdict.original_certifies
    original = {i: data_race_rows(views[i], program) for i in program.processes}
    for i, edge in minimal.all_edges():
        reduced = minimal.drop(i, edge)
        verdict = judge(views, program, reduced)
        assert not verdict.good, (i, edge)
        found = verdict.counterexample
        assert oracle.certifies(found, program, reduced, STRONG_CAUSAL)
        if kind == "views":
            assert found.sort_key() != views.sort_key()
        else:
            assert any(data_race_rows(found[p], program) != original[p] for p in original)
