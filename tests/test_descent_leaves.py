"""Every view set the descent hands out is a finished, well-formed `ViewSet`.

`consistency.iter_view_sets` builds each leaf once, from its tuple of
views in process order, without the checks of `ViewSet.of`.  Every set
that reaches a caller (each set `enumerate_certifying` yields, each
causal verdict's counterexample and each `find_explanation` result) must
therefore be the set `ViewSet.of` builds from its views: equal, with the
same hash, and with one view per process in strictly increasing process
order.
"""

import random

import pytest

from causalrnr import oracle
from causalrnr.consistency import CAUSAL, STRONG_CAUSAL, find_explanation
from causalrnr.model import Execution, Program, ViewSet
from causalrnr.records import Record

from conftest import resourced
from test_view_set_memo import FIXTURES, MODELS, _records


def assert_well_formed(found, program):
    assert type(found) is ViewSet
    assert type(found.views) is tuple
    rebuilt = ViewSet.of(found.views)
    assert found == rebuilt
    assert hash(found) == hash(rebuilt)
    assert found.views == rebuilt.views
    processes = found.processes()
    assert all(a < b for a, b in zip(processes, processes[1:]))
    assert processes == tuple(sorted(program.processes))


@pytest.mark.parametrize("model", MODELS)
def test_enumerated_sets(model):
    checked = 0
    for execution, views in FIXTURES:
        program = execution.program
        for record in _records(execution, views):
            for found in oracle.enumerate_certifying(program, record, model):
                assert_well_formed(found, program)
                checked += 1
    assert checked > 1000


def test_causal_counterexamples():
    checked = 0
    for execution, views in FIXTURES:
        program = execution.program
        for record in _records(execution, views):
            for judge in (oracle.is_good_view_record, oracle.is_good_race_record):
                verdict = judge(views, program, record, CAUSAL)
                if verdict.counterexample is not None:
                    assert_well_formed(verdict.counterexample, program)
                    checked += 1
    assert checked > 20


@pytest.mark.parametrize("model", MODELS)
def test_explanations(model):
    found_some = False
    for k, (execution, _) in enumerate(FIXTURES):
        copy = resourced(execution, random.Random(k))
        for given in (execution, copy):
            if given is None:
                continue
            found = find_explanation(given, model)
            if found is not None:
                assert_well_formed(found, given.program)
                found_some = True
    assert found_some


@pytest.mark.parametrize("model", MODELS)
def test_zero_processes(model):
    program = Program.of({})
    empty = Record.of({})
    found = list(oracle.enumerate_certifying(program, empty, model))
    assert found == [ViewSet(())]
    assert_well_formed(found[0], program)
    explanation = find_explanation(Execution(program, {}), model)
    assert explanation == ViewSet(())
    assert_well_formed(explanation, program)
