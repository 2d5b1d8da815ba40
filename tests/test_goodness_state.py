"""`oracle.Goodness`, the state the goodness verdicts on one view set
share, against the one-shot verdicts.

One shared object answers every verdict the fuzz battery asks and more:
the minimal view and race records, each with every edge dropped in
turn, the online record and the empty record, each under both kinds
and both models.  Every answer must equal, field by field, the verdict
of the one-shot function, which builds a fresh object per call.  The
rows and pairs the object caches are handed to `_least_replay` and the
descent, which must not change them: after all the verdicts each cached
entry still equals the same entry computed from scratch.  A malformed
record or view set raises the exception, with the message, that the
verdicts raised before they shared any state.
"""

import pytest

from causalrnr import oracle
from causalrnr.consistency import CAUSAL, STRONG_CAUSAL
from causalrnr.errors import UniverseMismatch
from causalrnr.model import View, ViewSet
from causalrnr.race_record import minimal_race_record
from causalrnr.records import Record
from causalrnr.view_record import minimal_view_record, online_record_from_views

from conftest import record_generated, small_generated

MAX_OPS = 10
FIXTURES = [*record_generated(), *(
    (f"small-{k}", execution, views) for k, (execution, views) in enumerate(small_generated())
)]
ONE_SHOT = {"views": oracle.is_good_view_record, "dro": oracle.is_good_race_record}


def records_of(views, execution):
    """The records the battery asks about, plus the empty record and the
    full minimal view record."""
    program = execution.program
    out = []
    for full in (minimal_view_record(views, execution), minimal_race_record(views, execution)):
        out += [full, *(full.drop(i, edge) for i, edge in full.all_edges())]
    out.append(online_record_from_views(views, execution))
    out.append(Record.of({i: () for i in program.processes}))
    return out


def queries(program):
    """(kind, model) pairs; the causal descent only up to the cap."""
    models = (STRONG_CAUSAL, CAUSAL) if len(program.all_ops) <= MAX_OPS else (STRONG_CAUSAL,)
    return [(kind, model) for model in models for kind in ("views", "dro")]


def fields(verdict):
    return (verdict.good, verdict.counterexample, verdict.original_certifies, verdict.enumerated)


@pytest.fixture(scope="module")
def asked():
    """Per fixture: its shared object, and every (record, kind, model,
    verdict) it answered, records in the outer loop so that the kinds
    and models interleave."""
    out = []
    for name, execution, views in FIXTURES:
        program = execution.program
        goodness = oracle.Goodness(views, program)
        answers = [
            (record, kind, model, goodness.verdict(record, kind, model, max_ops=MAX_OPS))
            for record in records_of(views, execution)
            for kind, model in queries(program)
        ]
        out.append((name, execution, views, goodness, answers))
    return out


def test_shared_verdicts_equal_the_one_shot_verdicts(asked):
    compared = 0
    for name, execution, views, _, answers in asked:
        program = execution.program
        for record, kind, model, shared in answers:
            fresh = ONE_SHOT[kind](views, program, record, model, max_ops=MAX_OPS)
            assert fields(shared) == fields(fresh), (name, kind, model, record)
            compared += 1
    assert compared > 2000


def test_cached_rows_are_not_changed_by_the_verdicts(asked):
    for name, execution, views, goodness, _ in asked:
        program = execution.program
        assert goodness._bases and set(goodness._pairs) == {"views", "dro"}
        for (i, edges), rows in goodness._bases.items():
            assert rows == oracle._process_base(program, i, edges), (name, i, edges)
        for kind, pairs in goodness._pairs.items():
            assert pairs == oracle._adjacent_pairs(views, program, kind), (name, kind)


def test_a_dropped_edge_closes_one_process_base_again(monkeypatch):
    _, execution, views = FIXTURES[0]
    program = execution.program
    record = minimal_view_record(views, execution)
    closed = []
    original = oracle._process_base

    def counting(program, process, edges):
        closed.append(process)
        return original(program, process, edges)

    monkeypatch.setattr(oracle, "_process_base", counting)
    goodness = oracle.Goodness(views, program)
    goodness.verdict(record, "views")
    assert closed == sorted(program.processes)
    for i, edge in record.all_edges():
        closed.clear()
        goodness.verdict(record.drop(i, edge), "views")
        assert closed == [i]
    closed.clear()
    goodness.verdict(record, "dro", CAUSAL, max_ops=MAX_OPS)
    assert closed == []


# ---------------------------------------------------------------------------
# Malformed input: the exceptions of the verdicts before the shared state
# ---------------------------------------------------------------------------


def view_sets(parsed):
    views = parsed.views
    first = views[1]
    return {
        "full": views,
        "partial": ViewSet.of([v for v in views.views if v.process != 3]),
        "unknown-op": views.replace(View(1, first.sequence + ("zz",))),
        "short": views.replace(View(1, first.sequence[:-1])),
        "extra-process": ViewSet.of([*views.views, View(9, ("w1",))]),
    }


def records(parsed):
    record = minimal_view_record(parsed.views, parsed.execution)
    edges = dict(record.per_process)
    return {
        "minimal": record,
        "unknown-process": Record.of({**edges, 9: frozenset()}),
        "escape": Record.of({**edges, 1: frozenset({("w1", "zz")})}),
        "self-loop": Record.of({**edges, 2: frozenset({("w2", "w2")})}),
    }


PARTIAL = (UniverseMismatch, "view set has no view of process 3")
SHORT = (
    UniverseMismatch,
    "view of process 1 must order exactly its own operations plus all writes; got ['w1']",
)
UNKNOWN_OP = (
    UniverseMismatch,
    "view of process 1 must order exactly its own operations plus all writes; "
    "got ['w1', 'w2', 'zz']",
)
UNKNOWN_PROCESS = (ValueError, "record names process 9, which the program lacks")
ESCAPE = (ValueError, "record for process 1 is malformed: pair (w1, zz) escapes the universe")
SELF_LOOP = (
    ValueError,
    "record for process 2 is malformed: self-loop (w2, w2) is not representable",
)

# (view set, record, model, exception type, message); the record is
# checked before the views, so a malformed record wins
MALFORMED = [
    ("partial", "minimal", STRONG_CAUSAL, *PARTIAL),
    ("partial", "minimal", CAUSAL, *PARTIAL),
    ("short", "minimal", STRONG_CAUSAL, *SHORT),
    ("unknown-op", "minimal", CAUSAL, *UNKNOWN_OP),
    ("extra-process", "minimal", STRONG_CAUSAL, ValueError, "unknown process 9"),
    ("full", "minimal", "cache", ValueError, "unsupported replay model 'cache'"),
    ("partial", "minimal", "cache", ValueError, "unsupported replay model 'cache'"),
    *((views, "unknown-process", model, *UNKNOWN_PROCESS)
      for views in ("full", "partial", "short") for model in (STRONG_CAUSAL, CAUSAL)),
    *((views, "escape", model, *ESCAPE)
      for views in ("partial", "unknown-op") for model in (STRONG_CAUSAL, CAUSAL)),
    *((views, "self-loop", model, *SELF_LOOP)
      for views in ("full", "short") for model in (STRONG_CAUSAL, "cache")),
]


@pytest.mark.parametrize("views_name, record_name, model, error, message", MALFORMED)
def test_malformed_input_raises_as_before(corpus, views_name, record_name, model, error, message):
    parsed = corpus["indirect-order"]
    views = view_sets(parsed)[views_name]
    record = records(parsed)[record_name]
    goodness = oracle.Goodness(views, parsed.program)
    for kind, one_shot in ONE_SHOT.items():
        calls = [
            lambda: one_shot(views, parsed.program, record, model, max_ops=MAX_OPS),
            # twice on one object: a failed check leaves nothing cached
            lambda: goodness.verdict(record, kind, model, max_ops=MAX_OPS),
            lambda: goodness.verdict(record, kind, model, max_ops=MAX_OPS),
        ]
        for call in calls:
            with pytest.raises(error) as raised:
                call()
            assert type(raised.value) is error
            assert str(raised.value) == message


def test_views_are_checked_on_the_first_verdict_under_each_model(corpus):
    parsed = corpus["indirect-order"]
    partial = view_sets(parsed)["partial"]
    record = records(parsed)["minimal"]
    goodness = oracle.Goodness(partial, parsed.program)
    for model in (STRONG_CAUSAL, CAUSAL):
        with pytest.raises(UniverseMismatch):
            goodness.verdict(record, "views", model, max_ops=MAX_OPS)
    assert goodness._holds == {}


def test_an_unknown_kind_is_rejected(corpus):
    parsed = corpus["indirect-order"]
    with pytest.raises(ValueError, match="unsupported verdict kind 'races'"):
        oracle.Goodness(parsed.views, parsed.program).verdict(records(parsed)["minimal"], "races")
