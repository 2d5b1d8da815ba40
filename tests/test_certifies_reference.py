"""`oracle.certifies` against certification as first defined.

`certifies` reads a view set's verdict off its order rows: the record
edges, then program order plus the SCO or the derived WO, with no
closure and no read-validity check.  The reference
(`conftest.reference_certifies`) derives the execution the views
explain and runs the model's whole checker on it.  Both must return the
same result, or raise the same exception type, on view sets with up to
two adjacent pairs swapped, under random records (cyclic ones, records
against program order and edges outside a universe included), under
both models.
"""

import random

import pytest

from causalrnr import oracle
from causalrnr.consistency import CAUSAL, STRONG_CAUSAL
from causalrnr.model import View
from causalrnr.records import Record

from conftest import reference_certifies, small_generated

PERTURBATIONS = 6
RECORDS = 15


def _perturbed(views, rng, swaps):
    """The views with `swaps` random adjacent pairs swapped, each in a
    random view."""
    for _ in range(swaps):
        view = rng.choice(views.views)
        seq = list(view.sequence)
        if len(seq) > 1:
            k = rng.randrange(len(seq) - 1)
            seq[k], seq[k + 1] = seq[k + 1], seq[k]
            views = views.replace(View(view.process, tuple(seq)))
    return views


def _random_record(program, rng):
    """Up to four random edges per process over its universe, in either
    direction, now and then one with an endpoint outside it."""
    ops = program.all_ops
    edges = {}
    for p in program.processes:
        universe = program.universe_of(p)
        pairs = set()
        for _ in range(rng.randint(0, 4) if universe else 0):
            a, b = rng.choice(universe), rng.choice(universe)
            if rng.random() < 0.03:
                b = rng.choice(ops)
            if a != b:
                pairs.add((a, b))
        edges[p] = pairs
    return Record.of(edges)


def _outcome(check, views, program, record, model):
    try:
        return check(views, program, record, model)
    except Exception as exc:  # the type is the outcome compared
        return type(exc)


def _triples(corpus, rng):
    fixtures = [(p.program, p.views) for p in corpus.values() if p.views is not None]
    fixtures += [(e.program, v) for e, v in small_generated(count=60, max_total_ops=8)]
    for program, views in fixtures:
        for n in range(PERTURBATIONS):
            candidate = _perturbed(views, rng, n % 3)
            for _ in range(RECORDS):
                yield candidate, program, _random_record(program, rng)


@pytest.mark.parametrize("model", [STRONG_CAUSAL, CAUSAL])
def test_certifies_matches_the_reference(model, corpus):
    rng = random.Random(3 if model == STRONG_CAUSAL else 4)
    outcomes = {}
    for views, program, record in _triples(corpus, rng):
        expected = _outcome(reference_certifies, views, program, record, model)
        actual = _outcome(oracle.certifies, views, program, record, model)
        assert actual == expected, (views, record)
        outcomes[expected] = outcomes.get(expected, 0) + 1
    assert sum(outcomes.values()) >= 5_000
    assert set(outcomes) == {True, False, ValueError}, outcomes
