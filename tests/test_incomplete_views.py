"""Every checker, record construction, witness and verdict rejects a
view set that leaves a process out, as `oracle.certifies` does, instead
of deciding on the views it was given: the entry points that start
with a strong-causality or causality check, and those that take shared
state (`view_witness`, `RaceAnalysis`, `Goodness`)."""

import pytest

from causalrnr import fixtures, oracle
from causalrnr.consistency import check_causal, check_strong_causal
from causalrnr.errors import UniverseMismatch
from causalrnr.model import ViewSet
from causalrnr.race_record import RaceAnalysis, minimal_race_record
from causalrnr.view_record import minimal_view_record, online_record_from_views

FULL = fixtures.load("indirect-order")
RECORD = minimal_view_record(FULL.views, FULL.execution)

ENTRY_POINTS = {
    "check_strong_causal": check_strong_causal,
    "check_causal": check_causal,
    "minimal_view_record": minimal_view_record,
    "online_record_from_views": online_record_from_views,
    "minimal_race_record": minimal_race_record,
    "necessity_witness_view_record": lambda views, execution: (
        oracle.necessity_witness_view_record(views, execution, 1, ("w1", "w2"))
    ),
    "necessity_witness_race_record": lambda views, execution: (
        oracle.necessity_witness_race_record(views, execution, 1, ("w1", "w2"))
    ),
    "view_witness": lambda views, execution: (
        oracle.view_witness(views, execution, RECORD, 2, ("w2", "w1"))
    ),
    "RaceAnalysis.record": lambda views, execution: (
        RaceAnalysis(views, execution.program).record()
    ),
    "is_good_view_record": lambda views, execution: (
        oracle.is_good_view_record(views, execution.program, RECORD)
    ),
    "is_good_race_record": lambda views, execution: (
        oracle.is_good_race_record(views, execution.program, RECORD)
    ),
    "Goodness.verdict": lambda views, execution: (
        oracle.Goodness(views, execution.program).verdict(RECORD, "dro")
    ),
}


@pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
def test_a_view_set_without_process_3_is_rejected(corpus, name):
    parsed = corpus["indirect-order"]
    assert 3 in parsed.program.processes
    partial = ViewSet.of([v for v in parsed.views.views if v.process != 3])
    with pytest.raises(UniverseMismatch, match="view set has no view of process 3$"):
        ENTRY_POINTS[name](partial, parsed.execution)

