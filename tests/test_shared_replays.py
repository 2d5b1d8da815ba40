"""The fuzz battery's replay memo (`oracle._shared_replays`) against the
unshared path.

While a `run_battery` call runs, `oracle._least_replay` answers a call
whose bases and pairs equal an earlier one's with the earlier result.
Every answer the battery takes from the oracle must equal, field by
field, `Verdict.enumerated` included, the answer a fresh `Goodness` or
`RaceAnalysis` gives with no memo active: each goodness verdict and
dropped-edge verdict of the view, online and race records, each view
and race witness and the completion of program order.  The battery's
state reads the order rows its fixture's view set keeps
(`ViewSet.order_rows`), so each reference runs on a fresh copy of the
views, which keeps none, and the same comparison checks the kept rows.
The memo's counts land in `BatteryStats`, and no entry outlives the
call: a second run of one fixture places as many replays as the first,
and after a run, passed or failed, no memo is active.
"""

import pytest

from causalrnr import battery, fixtures, oracle
from causalrnr.consistency import check_strong_causal
from causalrnr.model import ViewSet
from causalrnr.race_record import RaceAnalysis
from causalrnr.records import Record

from conftest import record_generated, small_generated


def fixtures_of():
    out = []
    for name in fixtures.names():
        parsed = fixtures.load(name)
        if parsed.views is not None and check_strong_causal(parsed.views, parsed.execution) is None:
            out.append((name, parsed.execution, parsed.views))
    out += record_generated()
    out += [(f"small-{k}", e, v) for k, (e, v) in enumerate(small_generated())]
    return out


FIXTURES = fixtures_of()


def spied_battery(monkeypatch, execution, views):
    """Runs the battery with every oracle answer it takes recorded as
    (name, inputs, answer, whether the memo answered part of it)."""
    calls = []
    originals = {
        "verdict": oracle.Goodness.verdict,
        "without_edge": oracle.Goodness.without_edge,
        "race_witness": oracle.race_witness,
        "extend_to_views": oracle.extend_to_views,
        "view_witness": oracle.view_witness,
    }

    def spy(name):
        original = originals[name]

        def spied(*args, **kwargs):
            memo = oracle._REPLAYS.get()
            assert memo is not None and memo.program is execution.program
            before = memo.shared
            answer = original(*args, **kwargs)
            calls.append((name, args, kwargs, answer, memo.shared > before))
            return answer

        return spied

    with monkeypatch.context() as m:
        m.setattr(oracle.Goodness, "verdict", spy("verdict"))
        m.setattr(oracle.Goodness, "without_edge", spy("without_edge"))
        m.setattr(oracle, "race_witness", spy("race_witness"))
        m.setattr(oracle, "extend_to_views", spy("extend_to_views"))
        m.setattr(oracle, "view_witness", spy("view_witness"))
        stats = battery.run_battery(execution, views)
    return stats, calls, originals


def unshared(originals, name, args, kwargs):
    """The same query with fresh per-fixture state, on a fresh copy of
    the views, and no memo."""
    assert oracle._REPLAYS.get() is None
    if name in ("verdict", "without_edge"):
        goodness, *rest = args
        fresh = oracle.Goodness(ViewSet.of(goodness.views.views), goodness.program)
        return originals[name](fresh, *rest, **kwargs)
    if name == "race_witness":
        analysis, *rest = args
        fresh = RaceAnalysis(ViewSet.of(analysis.views.views), analysis.program)
        return originals[name](fresh, *rest)
    if name == "view_witness":
        views, *rest = args
        return originals[name](ViewSet.of(views.views), *rest)
    return originals[name](*args, **kwargs)


def test_shared_answers_equal_unshared_ones(monkeypatch):
    shared_by = {}
    placed = shared = 0
    for name, execution, views in FIXTURES:
        stats, calls, originals = spied_battery(monkeypatch, execution, views)
        placed += stats.replays_placed
        shared += stats.replays_shared
        for call, args, kwargs, answer, hit in calls:
            assert answer == unshared(originals, call, args, kwargs), (name, call, args[1:])
            if hit:
                kind = args[2] if call == "verdict" else args[4] if call == "without_edge" else ""
                shared_by[call, kind] = shared_by.get((call, kind), 0) + 1
    # every kind of answer the memo shares in a battery was compared: the
    # race record's verdict, dropped-edge verdicts and witnesses
    for key in (("verdict", "dro"), ("without_edge", "dro"), ("race_witness", "")):
        assert shared_by.get(key, 0) >= 5, (key, shared_by)
    assert shared > placed // 10


def test_counts_on_a_fixture_whose_records_coincide():
    """write-race: the view, online and race records are all
    {1: (w2, w1)}, and every variable is one, so the race record's
    adjacent pairs are the views'.  Placed: the view record's verdict,
    its dropped-edge replay and the completion of program order.  Shared:
    the race record's verdict (the view record's bases and pairs), its
    dropped-edge replay and its witness (the view record's reversed
    replay).  The online verdict is the offline record's kept verdict,
    so it calls no placement."""
    parsed = fixtures.load("write-race")
    stats = battery.run_battery(parsed.execution, parsed.views)
    assert (stats.replays_placed, stats.replays_shared) == (3, 3)


def test_a_second_run_starts_from_an_empty_memo():
    for name, execution, views in FIXTURES[:20]:
        first = battery.run_battery(execution, views)
        second = battery.run_battery(execution, views)
        assert (second.replays_placed, second.replays_shared) == (
            first.replays_placed, first.replays_shared), name
        assert first.replays_placed > 0
        assert oracle._REPLAYS.get() is None


def test_a_failed_run_leaves_no_memo_active(monkeypatch):
    def failing(*args):
        assert oracle._REPLAYS.get() is not None
        battery._fail("race-record", "injected")

    monkeypatch.setattr(battery, "_race_record_stage", failing)
    parsed = fixtures.load("race-agreement")
    with pytest.raises(battery.BatteryFailure, match="injected"):
        battery.run_battery(parsed.execution, parsed.views)
    assert oracle._REPLAYS.get() is None


def test_a_memo_shares_only_its_own_program():
    """A placement on another program than the memo's is not kept."""
    first, second = fixtures.load("write-race"), fixtures.load("race-agreement")
    with oracle._shared_replays(first.program) as memo:
        for _ in range(2):
            program = second.program
            base = oracle._base_rows(program, Record.of({i: () for i in program.processes}))
            oracle._least_replay(program, base, None)
    assert (memo.placed, memo.shared) == (0, 0)
