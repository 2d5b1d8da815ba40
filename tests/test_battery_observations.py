"""The fuzz battery's observation stage on `RaceAnalysis` rows, against
the `Relation`-based stage it replaces.

`reference_observation_stage` is the stage as it was written on
`Relation`s: the strong write order, obligation graphs and flip
cascades as id pairs, the strong-write-order reach by
`transitive_closure`, and the redundancy test through
`RaceAnalysis.indirectly_enforced`.  The rows version must accept every
generated fixture the reference accepts.  Each corruption below,
monkeypatched into the analysis or the battery, must make `run_battery`
fail at the stage, and with the message, that it fails at with the
reference stage swapped in.
"""

import pytest

from causalrnr import battery, oracle
from causalrnr.consistency import sco_rows
from causalrnr.generator import GenParams, gen_strong_causal
from causalrnr.model import WRITE, derive_writes_to, order_rows
from causalrnr.relations import Relation, transitive_closure

from conftest import record_generated, small_generated

MAX_OPS = 10


def reference_observation_stage(execution, views, analysis, sco, stats):
    program = execution.program
    sco = Relation(program.writes, program.pairs_of(sco))
    swo = analysis.strong_write_order()

    if not swo.relation.pairs <= sco.pairs:
        battery._fail("observations", "strong write order escapes strong causal order")
    for pair, level in swo.level:
        if level < 1:
            battery._fail("observations", f"edge {pair} has level {level}")

    writes = program.writes
    for view in views.views:
        i = view.process
        obligation = analysis.obligation(i)
        if not swo.relation.pairs <= obligation.pairs:
            battery._fail("observations", f"obligation graph of {i} misses strong write order")
        for a in writes:
            for b in writes:
                if a == b or program.proc_of(b) != i:
                    continue
                if ((a, b) in obligation.pairs) != ((a, b) in swo.relation.pairs):
                    battery._fail(
                        "observations",
                        f"obligation/strong-write-order disagree on ({a}, {b})",
                    )

    swo_reach = transitive_closure(swo.relation)
    for view in views.views:
        i = view.process
        for o1, o2 in sorted(analysis.dro(i).pairs):
            if program.ops[o2].kind != WRITE:
                continue
            cascade = analysis.flip_cascade(i, o1, o2)
            for earlier, later in zip(cascade.levels, cascade.levels[1:]):
                if not earlier <= later:
                    battery._fail("observations", "cascade levels are not monotone")
            if program.ops[o1].kind == WRITE:
                for w3, w4 in sorted(cascade.union):
                    if o1 != w4 and (o1, w4) not in swo_reach.pairs:
                        battery._fail(
                            "observations",
                            f"cascade pair ({w3}, {w4}) not strong-write-order "
                            f"reachable from {o1}",
                        )
            if cascade.levels and cascade.levels[0] <= swo.relation.pairs:
                if (o1, o2) in analysis.indirectly_enforced(i):
                    battery._fail(
                        "observations",
                        f"pair ({o1}, {o2}) marked redundant despite a "
                        f"forced-order cascade",
                    )

    partials = {
        i: transitive_closure(
            Relation(program.universe_of(i), program.process_index(i).po_pairs)
        )
        for i in program.processes
    }
    completed = oracle.extend_to_views(partials, program)
    if battery.check_strong_causal(completed, derive_writes_to(completed, program)) is not None:
        battery._fail("observations", "completion of program order is not strongly causal")
    stats.stages.append("observations")


def fixtures():
    out = [e_v for e_v in small_generated()]
    out += [(e, v) for _, e, v in record_generated() if len(e.program.all_ops) <= MAX_OPS]
    for seed in range(30):
        for variables in (1, 2):
            out.append(gen_strong_causal(GenParams(seed, 3, 3, variables, 0.6)))
    return out


FIXTURES = fixtures()


def outcome(execution, views):
    """The battery's stats, or its failure as (stage, message)."""
    try:
        return battery.run_battery(execution, views, max_ops=MAX_OPS)
    except battery.BatteryFailure as failure:
        return failure.stage, str(failure)


def both(monkeypatch, execution, views):
    """The battery's outcome with the rows stage, then with the reference."""
    rows = outcome(execution, views)
    with monkeypatch.context() as m:
        m.setattr(battery, "_observation_stage", reference_observation_stage)
        reference = outcome(execution, views)
    return rows, reference


def test_rows_stage_accepts_what_the_reference_accepts(monkeypatch):
    for execution, views in FIXTURES:
        rows, reference = both(monkeypatch, execution, views)
        assert isinstance(reference, battery.BatteryStats), reference
        assert isinstance(rows, battery.BatteryStats), rows
        assert rows.stages == reference.stages
        assert rows.view_edges_checked == reference.view_edges_checked
        assert rows.race_edges_checked == reference.race_edges_checked


def after_race_stage(monkeypatch, corrupt):
    """Runs `corrupt(analysis)` once the race record stage is done."""
    original = battery._race_record_stage

    def stage(analysis, *args):
        original(analysis, *args)
        corrupt(analysis)

    monkeypatch.setattr(battery, "_race_record_stage", stage)


def swo_outside_sco(analysis):
    program = analysis.program
    orders = [(v.process, order_rows(v, program)) for v in analysis.views.views]
    sco = sco_rows(program, orders)
    for a in program.write_positions:
        for b in program.write_positions:
            if a != b and not sco[a] >> b & 1:
                analysis.swo_rows()[a] |= 1 << b
                return


def non_monotone_cascades(analysis):
    build = analysis._build_cascade

    def grown_then_emptied(i, first, second):
        levels = build(i, first, second)
        if levels and any(levels[-1]):
            levels += ([0] * len(levels[-1]),)
        return levels

    analysis._cascades.clear()
    analysis._build_cascade = grown_then_emptied


def every_race_collides(analysis):
    analysis._indirect.clear()
    analysis._collides = lambda i, o1, o2: True


def good_dropped_edge(monkeypatch):
    monkeypatch.setattr(
        oracle.Goodness, "without_edge", lambda *args, **kwargs: oracle.Verdict(True, None, True, 0)
    )


def witness_keeps_the_race(monkeypatch):
    monkeypatch.setattr(
        oracle.Goodness, "race_witness", lambda self, analysis, i, edge: analysis.views
    )


def online_misses_an_offline_edge(monkeypatch):
    original = battery.online_record_from_views

    def online(views, execution):
        record = original(views, execution)
        offline = battery.minimal_view_record(views, execution)
        for i, edge in offline.all_edges():
            return record.drop(i, edge)
        return record

    monkeypatch.setattr(battery, "online_record_from_views", online)


CORRUPTIONS = {
    "swo-outside-sco": (lambda m: after_race_stage(m, swo_outside_sco), "observations"),
    "non-monotone-cascade": (
        lambda m: after_race_stage(m, non_monotone_cascades), "observations"),
    "redundant-despite-cascade": (
        lambda m: after_race_stage(m, every_race_collides), "observations"),
    "good-dropped-edge": (good_dropped_edge, "view-record"),
    "online-misses-offline": (online_misses_an_offline_edge, "online-record"),
    "witness-keeps-race": (witness_keeps_the_race, "race-record"),
}


@pytest.mark.parametrize("name", sorted(CORRUPTIONS))
def test_a_corruption_fails_at_the_reference_stage(monkeypatch, name):
    corrupt, stage = CORRUPTIONS[name]
    corrupt(monkeypatch)
    caught = 0
    for execution, views in FIXTURES:
        rows, reference = both(monkeypatch, execution, views)
        assert rows == reference
        if not isinstance(reference, battery.BatteryStats):
            assert reference[0] == stage, reference
            caught += 1
    assert caught >= 10
