"""The replay memo of `oracle.Goodness` against the unshared path.

A `Goodness` places each strong verdict's replay, each dropped-edge
replay and each race witness (`Goodness.race_witness`) through
`Goodness._replay`, which answers a call whose bases and pairs equal an
earlier one's with the earlier result.  Every answer the battery takes
from the oracle must equal, field by field, `Verdict.enumerated`
included, the answer a fresh `Goodness` or `RaceAnalysis` gives: each
goodness verdict and dropped-edge verdict of the view, online and race
records, each view and race witness and the completion of program
order.  The battery's state reads the order rows its fixture's view set
keeps (`ViewSet.order_rows`), so each reference runs on a fresh copy of
the views, which keeps none, and the same comparison checks the kept
rows.

The memo lives as long as its `Goodness`: two objects on one fixture
share nothing, a second battery run reads the counts of the first, and
`BatteryStats` reads `Goodness.placed` and `Goodness.shared`, which do
not count the completion of program order (`extend_to_views` places
outside any memo).  The battery reaches the oracle through its public
names only.
"""

import ast
from pathlib import Path

import pytest

from causalrnr import battery, fixtures, oracle
from causalrnr.consistency import STRONG_CAUSAL, check_strong_causal
from causalrnr.errors import PreconditionViolated
from causalrnr.model import ViewSet
from causalrnr.race_record import RaceAnalysis
from causalrnr.view_record import minimal_view_record

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
METHODS = ("verdict", "without_edge", "race_witness")


def spied_battery(monkeypatch, execution, views):
    """Runs the battery with every oracle answer it takes recorded as
    (name, inputs, answer, whether the memo answered part of it)."""
    calls = []
    originals = {name: getattr(oracle.Goodness, name) for name in METHODS}
    originals["extend_to_views"] = oracle.extend_to_views
    originals["view_witness"] = oracle.view_witness

    def spy(name):
        original = originals[name]

        def spied(*args, **kwargs):
            goodness = args[0] if name in METHODS else None
            if goodness is not None:
                assert goodness.program is execution.program
            before = goodness.shared if goodness is not None else 0
            answer = original(*args, **kwargs)
            hit = goodness is not None and goodness.shared > before
            calls.append((name, args, kwargs, answer, hit))
            return answer

        return spied

    with monkeypatch.context() as m:
        for name in METHODS:
            m.setattr(oracle.Goodness, name, spy(name))
        m.setattr(oracle, "extend_to_views", spy("extend_to_views"))
        m.setattr(oracle, "view_witness", spy("view_witness"))
        stats = battery.run_battery(execution, views)
    return stats, calls, originals


def unshared(originals, name, args, kwargs):
    """The same query with fresh per-fixture state, on a fresh copy of
    the views, so with an empty memo."""
    if name in METHODS:
        goodness, *rest = args
        fresh = oracle.Goodness(ViewSet.of(goodness.views.views), goodness.program)
        if name == "race_witness":
            analysis, *rest = rest
            analysis = RaceAnalysis(ViewSet.of(analysis.views.views), analysis.program)
            rest = [analysis, *rest]
        answer = originals[name](fresh, *rest, **kwargs)
        assert fresh.shared == 0
        return answer
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
    adjacent pairs are the views'.  Placed: the view record's verdict and
    its dropped-edge replay.  Shared: the race record's verdict (the view
    record's bases and pairs), its dropped-edge replay and its witness
    (the view record's reversed replay).  The online verdict is the
    offline record's kept verdict, so it calls no placement, and the
    completion of program order places outside the memo."""
    parsed = fixtures.load("write-race")
    stats = battery.run_battery(parsed.execution, parsed.views)
    assert (stats.replays_placed, stats.replays_shared) == (2, 3)


def test_the_counts_are_the_placements_but_the_completion(monkeypatch):
    """Each placement the fixture's `Goodness` keeps is one
    `_least_replay` call; the one other call is the completion of
    program order."""
    placements = []
    original = oracle._least_replay

    def counting(program, base, pairs):
        placements.append(pairs)
        return original(program, base, pairs)

    monkeypatch.setattr(oracle, "_least_replay", counting)
    for name, execution, views in FIXTURES[:20]:
        placements.clear()
        stats = battery.run_battery(execution, views)
        assert len(placements) == stats.replays_placed + 1, name


def test_a_second_run_starts_from_an_empty_memo():
    for name, execution, views in FIXTURES[:20]:
        first = battery.run_battery(execution, views)
        second = battery.run_battery(execution, views)
        assert (second.replays_placed, second.replays_shared) == (
            first.replays_placed, first.replays_shared), name
        assert first.replays_placed > 0


def test_a_failed_run_leaves_no_memo_active(monkeypatch):
    """A run that fails half way leaves nothing that a later run reads."""
    parsed = fixtures.load("race-agreement")
    clean = battery.run_battery(parsed.execution, parsed.views)

    def failing(*args):
        battery._fail("race-record", "injected")

    with monkeypatch.context() as m:
        m.setattr(battery, "_race_record_stage", failing)
        with pytest.raises(battery.BatteryFailure, match="injected"):
            battery.run_battery(parsed.execution, parsed.views)
    again = battery.run_battery(parsed.execution, parsed.views)
    assert (again.replays_placed, again.replays_shared) == (
        clean.replays_placed, clean.replays_shared)


def test_two_objects_on_one_fixture_share_nothing():
    parsed = fixtures.load("indirect-order")
    program = parsed.program
    record = minimal_view_record(parsed.views, parsed.execution)
    first, second = oracle.Goodness(parsed.views, program), oracle.Goodness(parsed.views, program)
    assert first.verdict(record, "views") == second.verdict(record, "views")
    assert (first.placed, first.shared) == (second.placed, second.shared) == (1, 0)
    # the reversed record of a dropped edge is placed on each object anew
    i, edge = next(record.all_edges())
    dropped = [g.without_edge(record, i, edge, "views", STRONG_CAUSAL) for g in (first, second)]
    assert dropped[0] == dropped[1]
    assert first.without_edge(record, i, edge, "views", STRONG_CAUSAL) == dropped[0]
    assert (first.placed, first.shared) == (2, 1)
    assert (second.placed, second.shared) == (2, 0)


def test_a_placement_is_kept_under_its_pairs():
    """One record asked under both kinds: equal bases, other pairs.  The
    race record is good under "dro" but often not under "views", so an
    answer kept under the bases alone would show."""
    differ = 0
    for name, execution, views in FIXTURES:
        program = execution.program
        record = RaceAnalysis(views, program).record()
        goodness = oracle.Goodness(views, program)
        for kind in ("dro", "views", "dro"):
            fresh = oracle.Goodness(ViewSet.of(views.views), program)
            assert goodness.verdict(record, kind) == fresh.verdict(record, kind), (name, kind)
        differ += goodness.placed == 2
    assert differ >= 5


def test_a_memo_shares_only_its_own_program():
    """`Goodness.race_witness` rejects an analysis of another program,
    whose bases are rows over another index, and places nothing."""
    first, second = fixtures.load("write-race"), fixtures.load("race-agreement")
    goodness = oracle.Goodness(first.views, first.program)
    analysis = RaceAnalysis(second.views, second.program)
    i, edge = next(analysis.record().all_edges())
    with pytest.raises(PreconditionViolated, match="race analysis is of another program"):
        goodness.race_witness(analysis, i, edge)
    assert (goodness.placed, goodness.shared) == (0, 0)
    # an equal program parsed again is the same program
    again = fixtures.load("race-agreement")
    assert again.program is not second.program
    own = oracle.Goodness(again.views, again.program)
    assert own.race_witness(analysis, i, edge) == oracle.race_witness(analysis, i, edge)


def test_the_battery_uses_only_public_oracle_names():
    """No `oracle._*` attribute, and no private name imported from the
    oracle module."""
    tree = ast.parse(Path(battery.__file__).read_text())
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id == "oracle":
                used.add(node.attr)
        elif isinstance(node, ast.ImportFrom) and node.module == "causalrnr.oracle":
            used |= {alias.name for alias in node.names}
    assert {"Goodness", "certifying_replays", "view_witness"} <= used, used
    assert not {name for name in used if name.startswith("_")}, used
