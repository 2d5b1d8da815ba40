"""`ViewSet.order_rows`: each view's order rows, kept for one program.

The consistency checks, the record constructions, the race analysis,
the goodness verdicts and the witnesses all read the rows a view set
keeps, so a battery run builds each fixture view's rows once, and no
stage may change them: after the run they still equal freshly built
ones.  The rows are kept for one `Program` object, a failed build keeps
nothing, and the set's equality, hash, repr and sort key ignore them.
"""

import pytest

from causalrnr import battery, fixtures, model
from causalrnr.consistency import check_strong_causal
from causalrnr.errors import UniverseMismatch
from causalrnr.model import Program, View, ViewSet, order_rows

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


def built(views, program):
    return tuple(order_rows(v, program) for v in views.views)


def test_a_battery_run_builds_each_fixture_view_once(monkeypatch):
    original = model.order_rows
    for name, execution, views in FIXTURES:
        views = ViewSet.of(views.views)  # a copy that keeps no rows yet
        calls = []

        def spied(view, program):
            calls.append(view)
            return original(view, program)

        with monkeypatch.context() as m:
            m.setattr(model, "order_rows", spied)
            battery.run_battery(execution, views)
        mine = [v for v in calls if any(v is w for w in views.views)]
        assert len(mine) == len(execution.program.processes), name


def test_a_battery_run_leaves_the_kept_rows_unchanged():
    for name, execution, views in FIXTURES:
        views = ViewSet.of(views.views)
        battery.run_battery(execution, views)
        assert views.order_rows(execution.program) == built(views, execution.program), name


def test_rows_are_kept_per_program_object():
    parsed = fixtures.load("indirect-order")
    program, views = parsed.program, ViewSet.of(parsed.views.views)
    first = views.order_rows(program)
    assert views.order_rows(program) is first
    twin = Program(program.processes, program.listing)
    assert twin == program and twin is not program
    rebuilt = views.order_rows(twin)
    assert rebuilt is not first and rebuilt == first == built(views, program)


def test_a_failed_build_keeps_nothing(monkeypatch):
    parsed = fixtures.load("indirect-order")
    program = parsed.program
    short = View(1, parsed.views[1].sequence[:-1])
    views = parsed.views.replace(short)
    for _ in range(2):
        with pytest.raises(UniverseMismatch):
            views.order_rows(program)
    # a set whose only bad view comes last builds the good ones again
    calls = []
    original = model.order_rows

    def spied(view, program):
        calls.append(view)
        return original(view, program)

    monkeypatch.setattr(model, "order_rows", spied)
    bad_last = parsed.views.replace(View(3, parsed.views[3].sequence[:-1]))
    for _ in range(2):
        with pytest.raises(UniverseMismatch):
            bad_last.order_rows(program)
    assert len(calls) == 2 * len(bad_last.views)


def test_kept_rows_change_no_identity():
    parsed = fixtures.load("indirect-order")
    fresh = ViewSet.of(parsed.views.views)
    kept = ViewSet.of(parsed.views.views)
    kept.order_rows(parsed.program)
    assert kept == fresh
    assert hash(kept) == hash(fresh)
    assert repr(kept) == repr(fresh)
    assert kept.sort_key() == fresh.sort_key()
    assert {kept: 1}[fresh] == 1
