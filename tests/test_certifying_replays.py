"""`oracle.certifying_replays`, the strong model's enumeration on the SCO
fixpoint, against the view-set descent it replaces in the battery.

Up to the enumeration cap of 10 operations, it must yield the sets of
`enumerate_certifying(..., STRONG_CAUSAL)` in the same order: on the
minimal view and race records of fuzz-sized fixtures and of the shared
test fixtures, and on empty records, whose many certifying sets
exercise the branching.  Its first set is `_least_replay`'s least
replay on the same bases.  Past the cap, the minimal view record of
every larger fixture has exactly one certifying replay, the original
views, and the 15-operation fixture on which the descent spent 20M
placements settles, battery and all, in well under a second.
"""

import itertools
import time

import pytest

from causalrnr import oracle
from causalrnr.battery import run_battery
from causalrnr.consistency import STRONG_CAUSAL, check_strong_causal
from causalrnr.errors import BudgetExceeded
from causalrnr.generator import GenParams, gen_strong_causal
from causalrnr.race_record import minimal_race_record
from causalrnr.records import Record
from causalrnr.textio import parse_execution
from causalrnr.view_record import minimal_view_record

from conftest import record_generated, small_generated

CAP = 10


def fuzz_sized(count=24):
    """Fixtures of the fuzz benchmark's strata: 3 processes of 4
    operations, 6-8 operations in all, over 1 or 2 variables."""
    out = []
    seed = 0
    while len(out) < count:
        variables, ratio = ((1, 0.5), (2, 0.5), (1, 0.7), (2, 0.4))[seed % 4]
        execution, views = gen_strong_causal(GenParams(seed, 3, 4, variables, ratio))
        if 6 <= len(execution.program.all_ops) <= 8:
            out.append((f"fuzz-s{seed}", execution, views))
        seed += 1
    return out


def shared_fixtures(corpus):
    """The strongly causal bundled fixtures, `small_generated()` and the
    fixtures of `record_generated()` within the cap."""
    out = [
        (name, parsed.execution, parsed.views)
        for name, parsed in corpus.items()
        if check_strong_causal(parsed.views, parsed.execution) is None
    ]
    out += [(f"small-{k}", e, v) for k, (e, v) in enumerate(small_generated())]
    out += [g for g in record_generated() if len(g[1].program.all_ops) <= CAP]
    return out


def empty_record(program):
    return Record.of({i: () for i in program.processes})


def test_minimal_records_match_the_descent(corpus):
    queries = sets = 0
    for name, execution, views in [*fuzz_sized(), *shared_fixtures(corpus)]:
        program = execution.program
        for record in (
            minimal_view_record(views, execution),
            minimal_race_record(views, execution),
        ):
            expected = list(oracle.enumerate_certifying(program, record, STRONG_CAUSAL))
            assert list(oracle.certifying_replays(program, record)) == expected, name
            queries += 1
            sets += len(expected)
    assert queries > 150 and sets > queries


def test_empty_records_match_the_descent(corpus):
    """Empty records admit every strongly causal replay: up to thousands
    of sets per fixture, most of them from branches the descent's memo
    replays.  Fixtures of 7 and 8 operations come from the fuzz strata
    alone: the larger shared ones cost the descent millions of placements."""
    small = [f for f in shared_fixtures(corpus) if len(f[1].program.all_ops) <= 6]
    sets = 0
    for name, execution, _ in [*fuzz_sized(8), *small]:
        program = execution.program
        record = empty_record(program)
        expected = list(oracle.enumerate_certifying(program, record, STRONG_CAUSAL))
        assert list(oracle.certifying_replays(program, record)) == expected, name
        sets += len(expected)
    assert sets > 30_000


def test_the_first_set_is_the_least_replay(corpus):
    compared = 0
    for name, execution, views in [*fuzz_sized(), *record_generated()]:
        program = execution.program
        for record in (
            minimal_race_record(views, execution),
            empty_record(program),
        ):
            first = next(oracle.certifying_replays(program, record))
            least, _ = oracle._least_replay(program, oracle._base_rows(program, record), None)
            assert first == least, name
            compared += 1
    assert compared > 50


@pytest.mark.parametrize("text", [
    "process 1:\nprocess 2:\n",
    "process 1:\nprocess 2: r(x)#r1\n",
    "process 1: w(x)#w1\nprocess 2:\n",
])
def test_processes_without_positions(text):
    """A process whose universe is empty gets an empty view, first, last
    or alone."""
    program = parse_execution(text).program
    record = empty_record(program)
    expected = list(oracle.enumerate_certifying(program, record, STRONG_CAUSAL))
    assert list(oracle.certifying_replays(program, record)) == expected
    assert len(expected) == 1


def test_a_cyclic_record_admits_no_replay(corpus):
    parsed = corpus["indirect-order"]
    record = minimal_view_record(parsed.views, parsed.execution)
    i, (a, b) = next(record.all_edges())
    looped = Record(tuple(
        (j, edges | {(b, a)} if j == i else edges) for j, edges in record.per_process
    ))
    assert list(oracle.certifying_replays(parsed.program, looped)) == []
    assert list(oracle.enumerate_certifying(parsed.program, looped, STRONG_CAUSAL)) == []


def test_a_malformed_record_raises_before_anything_is_yielded(corpus):
    parsed = corpus["indirect-order"]
    program = parsed.program
    processes = sorted(program.processes)
    escaping = Record.of({i: () for i in processes} | {processes[-1]: {("w1", "zz")}})
    unknown = Record.of({i: () for i in processes} | {99: ()})
    for record in (escaping, unknown):
        replays = oracle.certifying_replays(program, record)
        with pytest.raises(ValueError):
            next(replays)


def test_each_placement_spends_the_budget(corpus):
    """With exactly one certifying set, the walk places each position of
    each process once, so it fits a budget of that many placements and
    no fewer; a budget of one placement runs out at the second."""
    parsed = corpus["indirect-order"]
    program = parsed.program
    record = minimal_view_record(parsed.views, parsed.execution)
    placements = sum(len(program.process_index(i).positions) for i in program.processes)
    assert placements > 2
    found = list(oracle.certifying_replays(program, record, node_budget=placements))
    assert found == [parsed.views]
    with pytest.raises(BudgetExceeded):
        list(oracle.certifying_replays(program, record, node_budget=placements - 1))
    with pytest.raises(BudgetExceeded):
        list(oracle.certifying_replays(program, record, node_budget=1))


def test_past_the_cap_the_minimal_view_record_has_one_replay():
    larger = [g for g in record_generated() if len(g[1].program.all_ops) > CAP]
    assert len(larger) >= 10
    for name, execution, views in larger:
        record = minimal_view_record(views, execution)
        found = list(itertools.islice(oracle.certifying_replays(execution.program, record), 2))
        assert found == [views], name


def test_the_fifteen_operation_battery_settles():
    execution, views = gen_strong_causal(
        GenParams(seed=110, processes=5, ops_per_process=3, variables=2, write_ratio=0.5)
    )
    assert len(execution.program.all_ops) == 15
    start = time.perf_counter()
    stats = run_battery(execution, views)
    assert time.perf_counter() - start < 1.0
    assert stats.certifying_seen == 1
