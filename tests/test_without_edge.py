"""`oracle.Goodness.without_edge` against the path it replaces.

`without_edge(record, process, edge, kind, model)` answers
`verdict(record.drop(process, edge), kind, model)`.  On a good record
that the original views certify it answers with one replay that
reverses the edge, for kind "dro" only when the edge joins two
operations on one variable; otherwise it takes `verdict` on the dropped
record.  Its `good`, `counterexample` and `original_certifies` must
equal the dropped record's verdict on every edge of the minimal view,
online and race records, under both kinds, on the bundled and the
generated fixtures, and on the fallbacks: a record that is not good and
the causal model.  `enumerated` counts the fixpoints of the route taken,
so it is not compared.
"""

import pytest

from causalrnr import oracle
from causalrnr.consistency import CAUSAL, STRONG_CAUSAL, check_strong_causal
from causalrnr.errors import PreconditionViolated
from causalrnr.race_record import minimal_race_record
from causalrnr.view_record import minimal_view_record, online_record_from_views

from conftest import record_generated, small_generated

MAX_OPS = 10


def fixtures_of(corpus):
    out = [
        (name, parsed.execution, parsed.views)
        for name, parsed in sorted(corpus.items())
        if parsed.views is not None
        and check_strong_causal(parsed.views, parsed.execution) is None
    ]
    out += record_generated()
    out += [(f"small-{k}", e, v) for k, (e, v) in enumerate(small_generated())]
    return out


def fields(verdict):
    return verdict.good, verdict.counterexample, verdict.original_certifies


def compare(goodness, record, kind, model=STRONG_CAUSAL):
    """Every edge of the record dropped through both paths; returns the
    number of edges compared."""
    for i, edge in record.all_edges():
        expected = goodness.verdict(record.drop(i, edge), kind, model, max_ops=MAX_OPS)
        got = goodness.without_edge(record, i, edge, kind, model, max_ops=MAX_OPS)
        assert fields(got) == fields(expected), (kind, model, i, edge)
    return record.size()


def test_without_edge_equals_the_dropped_record_verdict(corpus, monkeypatch):
    replays = []
    original = oracle._least_replay

    def counting(program, base, pairs):
        replays.append(pairs is None)
        return original(program, base, pairs)

    monkeypatch.setattr(oracle, "_least_replay", counting)
    compared = shortcuts = 0
    for name, execution, views in fixtures_of(corpus):
        goodness = oracle.Goodness(views, execution.program)
        records = (
            minimal_view_record(views, execution),
            online_record_from_views(views, execution),
            minimal_race_record(views, execution),
        )
        for record in records:
            for kind in ("views", "dro"):
                replays.clear()
                compared += compare(goodness, record, kind)
                shortcuts += sum(replays)
    assert compared > 1000
    # the reversal route answers most drops; the rest fall back
    assert shortcuts > compared // 2


def test_a_view_record_under_dro_has_edges_across_variables(corpus):
    """The minimal view record asked under kind "dro": its edges may join
    two variables, which takes the fallback, and the answers still match."""
    parsed = corpus["indirect-order"]
    program = parsed.program
    record = minimal_view_record(parsed.views, parsed.execution)
    masks, index = program.variable_masks, program.index
    assert any(not masks[index[a]] >> index[b] & 1 for _, (a, b) in record.all_edges())
    assert compare(oracle.Goodness(parsed.views, program), record, "dro") == record.size()


def test_a_record_that_is_not_good_takes_the_dropped_record_verdict():
    compared = 0
    for name, execution, views in record_generated():
        goodness = oracle.Goodness(views, execution.program)
        record = minimal_view_record(views, execution)
        for i, edge in list(record.all_edges())[:2]:
            bad = record.drop(i, edge)
            assert not goodness.verdict(bad, "views").good
            for kind in ("views", "dro"):
                compared += compare(goodness, bad, kind)
    assert compared > 50


def test_the_causal_model_takes_the_dropped_record_verdict():
    compared = 0
    for execution, views in small_generated():
        goodness = oracle.Goodness(views, execution.program)
        for record in (
            minimal_view_record(views, execution),
            minimal_race_record(views, execution),
        ):
            for kind in ("views", "dro"):
                compared += compare(goodness, record, kind, CAUSAL)
    assert compared > 50


def test_an_absent_edge_is_rejected(corpus):
    parsed = corpus["indirect-order"]
    record = minimal_view_record(parsed.views, parsed.execution)
    goodness = oracle.Goodness(parsed.views, parsed.program)
    process, (a, b) = next(record.all_edges())
    # a list or a single id is no pair: rejected, not a bare TypeError
    for edge in ((b, a), ("w1", "zz"), [a, b], [b, a], (a,)):
        with pytest.raises(PreconditionViolated, match="is not a record edge of process"):
            goodness.without_edge(record, process, edge, "views")
    with pytest.raises(PreconditionViolated):
        goodness.without_edge(record, 9, (a, b), "views")


def test_the_record_verdict_is_computed_once(corpus, monkeypatch):
    parsed = corpus["race-agreement"]
    record = minimal_view_record(parsed.views, parsed.execution)
    goodness = oracle.Goodness(parsed.views, parsed.program)
    asked = []
    original = oracle.Goodness.verdict

    def counting(self, record, kind, *args, **kwargs):
        asked.append(kind)
        return original(self, record, kind, *args, **kwargs)

    monkeypatch.setattr(oracle.Goodness, "verdict", counting)
    for i, edge in record.all_edges():
        goodness.without_edge(record, i, edge, "views")
    assert record.size() > 1 and asked == ["views"]
