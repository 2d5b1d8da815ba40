"""The goodness verdicts check their limits under both models.

A `node_budget` and an explicit `max_ops` are usage limits: a value that
is not None or a non-negative int (a `bool` included) raises ValueError
before anything is decided, under the strong model, which applies
neither limit, as under the causal one.  `enumeration_cap` rejects an
explicit `max_ops` in the way it rejects `CAUSAL_RNR_MAX_OPS`, so the
other capped queries reject it too.

The model is checked before either limit: an unsupported one is a
ValueError that names it, even on a program past the causal enumeration
cap.
"""

import pytest

from causalrnr import consistency, fixtures, oracle
from causalrnr.consistency import CAUSAL, DEFAULT_MAX_OPS, STRONG_CAUSAL, enumeration_cap
from causalrnr.errors import BudgetExceeded
from causalrnr.generator import GenParams, gen_strong_causal
from causalrnr.records import Record
from causalrnr.view_record import minimal_view_record

MODELS = (STRONG_CAUSAL, CAUSAL)
INVALID_BUDGETS = (-1, True, False, 2.5, "10")
INVALID_CAPS = (-5, True, False, 2.5, "x")


def _verdicts(model, **limits):
    """Each verdict entry point on the write-race fixture under `model`,
    with `limits` as keyword arguments."""
    parsed = fixtures.load("write-race")
    return _entries(parsed.views, parsed.execution, model, **limits)


def _entries(views, execution, model, **limits):
    """Each verdict entry point on `views` and their minimal view record
    under `model`, with `limits` as keyword arguments."""
    program = execution.program
    record = minimal_view_record(views, execution)
    process, edge = next(record.all_edges())
    goodness = oracle.Goodness(views, program)
    return {
        "is_good_view_record": lambda: oracle.is_good_view_record(
            views, program, record, model, **limits
        ),
        "is_good_race_record": lambda: oracle.is_good_race_record(
            views, program, record, model, **limits
        ),
        "verdict": lambda: goodness.verdict(record, "views", model, **limits),
        "without_edge": lambda: goodness.without_edge(
            record, process, edge, "dro", model, **limits
        ),
    }


ENTRIES = sorted(_verdicts(STRONG_CAUSAL))


@pytest.mark.parametrize("entry", ENTRIES)
@pytest.mark.parametrize("model", MODELS)
@pytest.mark.parametrize("limit", INVALID_BUDGETS)
def test_an_invalid_node_budget_is_a_usage_error(entry, model, limit):
    with pytest.raises(ValueError, match="node budget must be None or a non-negative int"):
        _verdicts(model, node_budget=limit)[entry]()


@pytest.mark.parametrize("entry", ENTRIES)
@pytest.mark.parametrize("model", MODELS)
@pytest.mark.parametrize("limit", INVALID_CAPS)
def test_an_invalid_max_ops_is_a_usage_error(entry, model, limit):
    with pytest.raises(ValueError, match="max_ops must be None or a non-negative int"):
        _verdicts(model, max_ops=limit)[entry]()


@pytest.mark.parametrize("entry", ENTRIES)
def test_valid_limits_still_decide(entry):
    """Zero and None are limits: the strong model applies neither, the
    causal model caps a program past `max_ops` operations."""
    for limits in ({"node_budget": 0, "max_ops": 0}, {"node_budget": None, "max_ops": None}):
        assert isinstance(_verdicts(STRONG_CAUSAL, **limits)[entry](), oracle.Verdict)
    assert isinstance(_verdicts(CAUSAL, node_budget=None, max_ops=10)[entry](), oracle.Verdict)
    with pytest.raises(BudgetExceeded, match="exceed the enumeration cap of 0"):
        _verdicts(CAUSAL, max_ops=0)[entry]()


def test_the_strong_model_reads_no_cap_from_the_environment(monkeypatch):
    monkeypatch.setenv(consistency.MAX_OPS_ENV, "abc")
    assert _verdicts(STRONG_CAUSAL)["verdict"]().good
    with pytest.raises(ValueError, match="CAUSAL_RNR_MAX_OPS"):
        _verdicts(CAUSAL)["verdict"]()


@pytest.mark.parametrize("entry", ENTRIES)
@pytest.mark.parametrize("model", ("bogus", "cache"))
def test_an_unsupported_model_is_named_before_the_cap(entry, model):
    execution, views = gen_strong_causal(GenParams(6, 4, 5, 2, 0.5))
    assert len(execution.program.all_ops) > DEFAULT_MAX_OPS
    with pytest.raises(ValueError, match=f"unsupported replay model '{model}'"):
        _entries(views, execution, model)[entry]()


@pytest.mark.parametrize("limit", INVALID_CAPS)
def test_enumeration_cap_rejects_an_invalid_max_ops(limit):
    with pytest.raises(ValueError, match="max_ops must be None or a non-negative int"):
        enumeration_cap(limit)
    parsed = fixtures.load("write-race")
    empty = Record.of({p: frozenset() for p in parsed.program.processes})
    for model in MODELS:
        with pytest.raises(ValueError, match="max_ops"):
            consistency.find_explanation(parsed.execution, model, max_ops=limit)
        with pytest.raises(ValueError, match="max_ops"):
            list(oracle.enumerate_certifying(parsed.program, empty, model, max_ops=limit))


def test_enumeration_cap_passes_a_valid_max_ops():
    assert enumeration_cap(0) == 0
    assert enumeration_cap(7) == 7
