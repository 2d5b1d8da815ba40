"""Replay enumeration, goodness verdicts, completions and witnesses."""

import random
import re

import pytest

from causalrnr import oracle
from causalrnr.consistency import (
    CAUSAL,
    STRONG_CAUSAL,
    check_strong_causal,
    strong_causal_order,
)
from causalrnr.errors import (
    BudgetExceeded,
    InternalInvariant,
    PreconditionViolated,
    UniverseMismatch,
)
from causalrnr.generator import GenParams, gen_strong_causal
from causalrnr.model import (
    READ,
    WRITE,
    Execution,
    Operation,
    Program,
    View,
    ViewSet,
    data_race_order,
    derive_writes_to,
    order_rows,
)
from causalrnr.race_record import RaceAnalysis, minimal_race_record, naive_causal_race_record
from causalrnr.records import Record
from causalrnr.relations import Relation, transitive_closure
from causalrnr.view_record import (
    indirectly_enforced,
    minimal_view_record,
    naive_causal_view_record,
)

from conftest import reference_certifies


class TestEnumerate:
    def test_replay_and_original_both_certify_the_naive_record(self, corpus):
        parsed = corpus["naive-view-record"]
        replay = corpus["naive-view-record-replay"]
        record = naive_causal_view_record(parsed.views, parsed.execution)
        assert oracle.certifies(parsed.views, parsed.program, record, CAUSAL)
        assert oracle.certifies(replay.views, parsed.program, record, CAUSAL)
        keys = set()
        for candidate in oracle.enumerate_certifying(parsed.program, record, CAUSAL):
            keys.add(candidate.sort_key())
        assert parsed.views.sort_key() in keys
        assert replay.views.sort_key() in keys

    def test_minimal_record_pins_the_unique_replay(self, corpus):
        parsed = corpus["indirect-order"]
        record = minimal_view_record(parsed.views, parsed.execution)
        found = list(
            oracle.enumerate_certifying(parsed.program, record, STRONG_CAUSAL)
        )
        assert len(found) == 1
        assert found[0].sort_key() == parsed.views.sort_key()

    def test_empty_program_yields_the_empty_view_set(self):
        program = Program.of({1: []})
        found = list(
            oracle.enumerate_certifying(
                program, Record.of({1: set()}), STRONG_CAUSAL
            )
        )
        assert len(found) == 1
        assert found[0][1].sequence == ()

    def test_emission_is_lexicographic(self, corpus):
        parsed = corpus["indirect-order"]
        record = Record.of({1: set(), 2: set(), 3: set()})
        keys = [
            vs.sort_key()
            for vs in oracle.enumerate_certifying(parsed.program, record, STRONG_CAUSAL)
        ]
        assert keys == sorted(keys)
        assert len(keys) == len(set(keys))

    def test_cap_enforced(self, corpus):
        parsed = corpus["separation"]
        record = Record.of({1: set(), 2: set()})
        with pytest.raises(BudgetExceeded):
            list(
                oracle.enumerate_certifying(
                    parsed.program, record, STRONG_CAUSAL, max_ops=4
                )
            )

    @pytest.mark.parametrize("cyclic", [False, True])
    def test_unsupported_model_rejected_before_anything_is_yielded(self, cyclic):
        program, _ = _two_readers()
        record = Record.of({1: set(), 2: {("r2", "w2")} if cyclic else set()})
        found = oracle.enumerate_certifying(program, record, "cache")
        with pytest.raises(ValueError, match="unsupported replay model 'cache'"):
            next(found)

    def test_unsupported_model_checked_before_the_cap(self, corpus):
        parsed = corpus["separation"]
        record = Record.of({1: set(), 2: set()})
        with pytest.raises(ValueError, match="unsupported replay model"):
            list(oracle.enumerate_certifying(parsed.program, record, "cache", max_ops=4))

    def test_replay_preserves_order_and_covered_pairs(self, corpus, generated_corpus):
        # every certifying replay of the minimal record keeps the original
        # strong causal order and every indirectly enforced pair
        cases = [(c.execution, c.views) for c in corpus.values()
                 if c.views and check_strong_causal(c.views, c.execution) is None]
        cases += list(generated_corpus[:10])
        for execution, views in cases:
            program = execution.program
            record = minimal_view_record(views, execution)
            sco = strong_causal_order(views, program)
            for candidate in oracle.enumerate_certifying(
                program, record, STRONG_CAUSAL
            ):
                replay_sco = strong_causal_order(candidate, program)
                assert sco.pairs <= replay_sco.pairs
                for view in views.views:
                    i = view.process
                    pos = candidate[i].positions
                    for a, b in indirectly_enforced(views, program, i).pairs:
                        assert pos[a] < pos[b]


def _two_readers():
    """Processes 1 and 2 each write then read x."""
    program = Program.of({
        1: [Operation(WRITE, 1, "x", "w1"), Operation(READ, 1, "x", "r1")],
        2: [Operation(WRITE, 2, "x", "w2"), Operation(READ, 2, "x", "r2")],
    })
    views = ViewSet.of([View(1, ("w1", "r1", "w2")), View(2, ("w1", "w2", "r2"))])
    return program, views


class TestMalformedRecord:
    QUERIES = {
        "enumerate": lambda program, views, record: list(
            oracle.enumerate_certifying(program, record, STRONG_CAUSAL)
        ),
        "view": lambda program, views, record: oracle.is_good_view_record(
            views, program, record
        ),
        "race": lambda program, views, record: oracle.is_good_race_record(
            views, program, record
        ),
        "view-causal": lambda program, views, record: oracle.is_good_view_record(
            views, program, record, CAUSAL
        ),
        "race-causal": lambda program, views, record: oracle.is_good_race_record(
            views, program, record, CAUSAL
        ),
    }

    @pytest.mark.parametrize("query", sorted(QUERIES))
    def test_edge_outside_the_universe(self, query):
        program, views = _two_readers()
        # r2 is not in process 1's universe
        record = Record.of({1: {("r1", "r2")}, 2: set()})
        with pytest.raises(ValueError, match="record for process 1 is malformed"):
            self.QUERIES[query](program, views, record)

    @pytest.mark.parametrize("query", sorted(QUERIES))
    def test_raised_even_when_an_earlier_process_has_no_extension(self, query):
        program, views = _two_readers()
        # process 1's record reverses its program order, so it has no view
        record = Record.of({1: {("r1", "w1")}, 2: {("r2", "r1")}})
        with pytest.raises(ValueError, match="record for process 2 is malformed"):
            self.QUERIES[query](program, views, record)

    # a self-loop is malformed for the certification test and the view
    # witness too, which order record edges on positions and rows
    SELF_LOOP_QUERIES = {
        **QUERIES,
        "certifies": lambda program, views, record: oracle.certifies(
            views, program, record, STRONG_CAUSAL
        ),
        "certifies-causal": lambda program, views, record: oracle.certifies(
            views, program, record, CAUSAL
        ),
        # (r1, w2) is consecutive in process 1's view, and swapping it
        # keeps the views strongly causal
        "view_witness": lambda program, views, record: oracle.view_witness(
            views,
            derive_writes_to(views, program),
            Record.of({1: {("r1", "w2")}, 2: record.edges(2)}),
            1,
            ("r1", "w2"),
        ),
    }

    @pytest.mark.parametrize("query", sorted(SELF_LOOP_QUERIES))
    def test_self_loop(self, query):
        program, views = _two_readers()
        record = Record.of({1: set(), 2: {("w2", "w2")}})
        message = "record for process 2 is malformed: self-loop (w2, w2) is not representable"
        with pytest.raises(ValueError, match=re.escape(message)):
            self.SELF_LOOP_QUERIES[query](program, views, record)

    @pytest.mark.parametrize("query", sorted(QUERIES) + ["certifies", "certifies-causal"])
    def test_unknown_process(self, query, corpus):
        parsed = corpus["indirect-order"]
        minimal = minimal_view_record(parsed.views, parsed.execution)
        record = Record.of({**dict(minimal.per_process), 99: {("zz", "yy")}})
        queries = {
            **self.QUERIES,
            "certifies": lambda program, views, record: oracle.certifies(
                views, program, record, STRONG_CAUSAL
            ),
            "certifies-causal": lambda program, views, record: oracle.certifies(
                views, program, record, CAUSAL
            ),
        }
        with pytest.raises(ValueError, match="record names process 99"):
            queries[query](parsed.program, parsed.views, record)

    def test_cyclic_record_admits_no_replay(self):
        program, views = _two_readers()
        record = Record.of({1: set(), 2: {("r2", "w2")}})
        assert list(oracle.enumerate_certifying(program, record, STRONG_CAUSAL)) == []
        verdict = oracle.is_good_view_record(views, program, record)
        assert verdict.good and verdict.enumerated == 0


JUDGES = (oracle.certifies, oracle.is_good_view_record, oracle.is_good_race_record)
RECORDS = {
    "empty": Record.of({1: set(), 2: set()}),
    # process 1's view (w1, r1, w2) orders w1 before w2
    "violated": Record.of({1: {("w2", "w1")}, 2: set()}),
}


class TestMalformedViewSet:
    """A view set is checked before the record is: one without a view for
    some process, or whose view names an unknown operation, is a
    `UniverseMismatch` for the certification test and both verdicts,
    under both models, whether or not the views extend the record."""

    pytestmark = [
        pytest.mark.parametrize("model", [STRONG_CAUSAL, CAUSAL]),
        pytest.mark.parametrize("judge", JUDGES, ids=lambda judge: judge.__name__),
        pytest.mark.parametrize("record", sorted(RECORDS)),
    ]

    def test_missing_view(self, judge, model, record):
        program, views = _two_readers()
        with pytest.raises(UniverseMismatch, match="no view of process 2"):
            judge(ViewSet.of([views[1]]), program, RECORDS[record], model)

    def test_unknown_operation(self, judge, model, record):
        program, views = _two_readers()
        unknown = views.replace(View(2, ("w1", "w2", "r9")))
        with pytest.raises(UniverseMismatch, match="view of process 2 must order exactly"):
            judge(unknown, program, RECORDS[record], model)


class TestGoodness:
    def test_minimal_view_record_is_good(self, corpus):
        parsed = corpus["indirect-order"]
        record = minimal_view_record(parsed.views, parsed.execution)
        verdict = oracle.is_good_view_record(parsed.views, parsed.program, record)
        assert verdict.good and verdict.original_certifies

    def test_emptied_record_is_not_good(self, corpus):
        parsed = corpus["indirect-order"]
        record = minimal_view_record(parsed.views, parsed.execution)
        verdict = oracle.is_good_view_record(
            parsed.views, parsed.program, record.drop(3, ("w1", "w2"))
        )
        assert not verdict.good
        assert verdict.counterexample.sort_key() != parsed.views.sort_key()

    def test_naive_view_scheme_not_good_under_causal(self, corpus):
        parsed = corpus["naive-view-record"]
        record = naive_causal_view_record(parsed.views, parsed.execution)
        verdict = oracle.is_good_view_record(
            parsed.views, parsed.program, record, CAUSAL
        )
        assert not verdict.good

    def test_naive_race_scheme_not_good_under_causal(self, corpus):
        parsed = corpus["naive-race-record"]
        replay = corpus["naive-race-record-replay"]
        record = naive_causal_race_record(parsed.views, parsed.execution)
        assert oracle.certifies(replay.views, parsed.program, record, CAUSAL)
        verdict = oracle.is_good_race_record(
            parsed.views, parsed.program, record, CAUSAL
        )
        assert not verdict.good

    def test_full_race_order_is_trivially_good(self, corpus):
        parsed = corpus["write-race"]
        record = Record.of(
            {
                i: set(data_race_order(parsed.views[i], parsed.program).pairs)
                for i in parsed.program.processes
            }
        )
        verdict = oracle.is_good_race_record(parsed.views, parsed.program, record)
        assert verdict.good

    @pytest.mark.parametrize("verdict", [oracle.is_good_view_record, oracle.is_good_race_record])
    def test_causal_verdict_on_one_process(self, verdict):
        # the first view placed is already a whole view set
        program = Program.of({
            1: [Operation(WRITE, 1, "x", "w1"), Operation(READ, 1, "x", "r1"),
                Operation(WRITE, 1, "x", "w2")],
        })
        views = ViewSet.of([View(1, ("w1", "r1", "w2"))])
        record = Record.of({1: set()})
        assert verdict(views, program, record, CAUSAL) == oracle.Verdict(True, None, True, 1)


def _swapped(views, rng):
    """The views with one random adjacent pair of one view swapped."""
    view = rng.choice(views.views)
    seq = list(view.sequence)
    if len(seq) < 2:
        return views
    k = rng.randrange(len(seq) - 1)
    seq[k], seq[k + 1] = seq[k + 1], seq[k]
    return views.replace(View(view.process, tuple(seq)))


def _certification_queries(corpus, generated_corpus):
    """(views, program, record) triples: original and swapped views, under
    their minimal view record, the empty record, a record reversing an
    adjacent pair of one view, and a cyclic record."""
    rng = random.Random(5)
    fixtures = [(p.execution, p.views) for p in corpus.values() if p.views is not None]
    for execution, views in fixtures + generated_corpus[:20]:
        program = execution.program
        no_edges = {p: set() for p in program.processes}
        for candidate in (views, _swapped(views, rng), _swapped(views, rng)):
            records = [Record.of(no_edges)]
            if check_strong_causal(views, execution) is None:
                records.append(minimal_view_record(views, execution))
            view = rng.choice(views.views)
            if len(view.sequence) > 1:
                a, b = view.sequence[:2]
                for edges in ({(b, a)}, {(a, b), (b, a)}):
                    records.append(Record.of(no_edges | {view.process: edges}))
            for record in records:
                yield candidate, program, record


@pytest.mark.parametrize("model", [STRONG_CAUSAL, CAUSAL])
def test_verdicts_report_whether_the_original_views_certify(model, corpus, generated_corpus):
    outcomes = set()
    for views, program, record in _certification_queries(corpus, generated_corpus):
        expected = reference_certifies(views, program, record, model)
        for judge in (oracle.is_good_view_record, oracle.is_good_race_record):
            assert judge(views, program, record, model).original_certifies == expected
        strong = reference_certifies(views, program, record, STRONG_CAUSAL)
        outcomes.add((expected, strong))
    # certified and not; under the causal model, views that are not strongly causal
    assert {(True, True), (False, False)} <= outcomes
    assert (model == CAUSAL) == ((True, False) in outcomes)


class TestExtendToViews:
    def test_identity_on_total_orders(self, corpus):
        parsed = corpus["indirect-order"]
        partials = {
            v.process: Relation.total(v.sequence) for v in parsed.views.views
        }
        completed = oracle.extend_to_views(partials, parsed.program)
        assert completed.sort_key() == parsed.views.sort_key()

    def test_program_order_alone_completes(self, corpus):
        parsed = corpus["indirect-order"]
        program = parsed.program
        partials = {
            i: transitive_closure(
                Relation(program.universe_of(i), program.po_restricted(program.universe_of(i)))
            )
            for i in program.processes
        }
        completed = oracle.extend_to_views(partials, program)
        derived = derive_writes_to(completed, program)
        assert check_strong_causal(completed, derived) is None
        for i in program.processes:
            pos = completed[i].positions
            for a, b in partials[i].pairs:
                assert pos[a] < pos[b]

    def test_wrong_universe_rejected(self, corpus):
        parsed = corpus["indirect-order"]
        partials = {
            i: Relation.empty(("w1",)) for i in parsed.program.processes
        }
        with pytest.raises(PreconditionViolated):
            oracle.extend_to_views(partials, parsed.program)

    def test_disrespecting_order_rejected(self, corpus):
        parsed = corpus["write-race"]
        program = parsed.program
        # process 1 claims (w2, w1), which makes it a strong causal
        # ordering process 2's empty partial cannot respect
        partials = {
            1: Relation.from_pairs(program.universe_of(1), [("w2", "w1")]),
            2: Relation.empty(program.universe_of(2)),
        }
        with pytest.raises(PreconditionViolated):
            oracle.extend_to_views(partials, program)


class TestNecessityWitnessView:
    def test_indirect_order_witness(self, corpus):
        parsed = corpus["indirect-order"]
        witness = oracle.necessity_witness_view_record(
            parsed.views, parsed.execution, 2, ("w2", "w1")
        )
        assert witness[2].sequence == ("w1", "w2")
        derived = derive_writes_to(witness, parsed.program)
        assert check_strong_causal(witness, derived) is None

    def test_covered_edge_rejected(self, corpus):
        parsed = corpus["write-race"]
        # process 2's ordering is enforced for it by strong causal order
        with pytest.raises(PreconditionViolated):
            oracle.necessity_witness_view_record(
                parsed.views, parsed.execution, 2, ("w2", "w1")
            )

    def test_smallest_applicable_case(self, corpus):
        parsed = corpus["write-race"]
        witness = oracle.necessity_witness_view_record(
            parsed.views, parsed.execution, 1, ("w2", "w1")
        )
        assert witness[1].sequence == ("w1", "w2")
        assert witness[2].sequence == ("w2", "w1")

    def test_witness_certifies_the_reduced_record(self, corpus):
        parsed = corpus["indirect-order"]
        record = minimal_view_record(parsed.views, parsed.execution)
        witness = oracle.necessity_witness_view_record(
            parsed.views, parsed.execution, 3, ("w1", "w2")
        )
        assert oracle.certifies(
            witness, parsed.program, record.drop(3, ("w1", "w2")), STRONG_CAUSAL
        )

    def test_view_witness_reuses_the_given_record(self, corpus):
        parsed = corpus["indirect-order"]
        record = minimal_view_record(parsed.views, parsed.execution)
        for i, edge in record.all_edges():
            assert oracle.view_witness(
                parsed.views, parsed.execution, record, i, edge
            ) == oracle.necessity_witness_view_record(
                parsed.views, parsed.execution, i, edge
            )
        i, edge = next(record.all_edges())
        with pytest.raises(PreconditionViolated):
            oracle.view_witness(
                parsed.views, parsed.execution, record.drop(i, edge), i, edge
            )


    @pytest.mark.parametrize(
        "extra, message",
        [
            ({1: {("w1", "zz")}}, "record edge (w1, zz) escapes process 1's view"),
            ({9: {("w1", "w2")}}, "record names process 9, which the program lacks"),
        ],
        ids=["edge-escapes", "unknown-process"],
    )
    def test_view_witness_rejects_a_malformed_record(self, corpus, extra, message):
        parsed = corpus["indirect-order"]
        record = minimal_view_record(parsed.views, parsed.execution)
        assert ("w2", "w1") in record.edges(2)
        edges = {i: record.edges(i) for i in record.processes}
        for i, more in extra.items():
            edges[i] = edges.get(i, frozenset()) | more
        with pytest.raises(ValueError, match=re.escape(message)):
            oracle.view_witness(
                parsed.views, parsed.execution, Record.of(edges), 2, ("w2", "w1")
            )

    @pytest.mark.parametrize("edge", [("w3_00", "r1_00"), ("r1_00", "w3_00")])
    def test_view_witness_rejects_an_edge_not_consecutive_in_the_view(self, edge):
        # the view of process 1 is r1_00 r1_01 w3_00: the first edge starts
        # at its last operation, the second skips r1_01
        execution, views = gen_strong_causal(
            GenParams(seed=5, processes=3, ops_per_process=3, variables=2, write_ratio=0.6)
        )
        assert views[1].sequence == ("r1_00", "r1_01", "w3_00")
        record = Record.of({1: {edge}})
        with pytest.raises(PreconditionViolated, match=re.escape(str(edge))):
            oracle.view_witness(views, execution, record, 1, edge)


class TestNecessityWitnessRace:
    def test_own_write_target(self, corpus):
        parsed = corpus["write-race"]
        witness = oracle.necessity_witness_race_record(
            parsed.views, parsed.execution, 1, ("w2", "w1")
        )
        assert data_race_order(witness[1], parsed.program).pairs == {("w1", "w2")}

    def test_race_agreement_edges(self, corpus):
        parsed = corpus["race-agreement"]
        for i, edge in ((2, ("w2", "w1")), (3, ("w1", "w2"))):
            witness = oracle.necessity_witness_race_record(
                parsed.views, parsed.execution, i, edge
            )
            a, b = edge
            assert (b, a) in data_race_order(witness[i], parsed.program).pairs

    def test_read_target_edge_uses_empty_cascade(self, generated_corpus):
        # find a fixture whose record keeps a (write, read) race edge and
        # check the witness construction handles the empty cascade branch
        exercised = 0
        for execution, views in generated_corpus:
            program = execution.program
            record = minimal_race_record(views, execution)
            for i, (a, b) in record.all_edges():
                if program.ops[b].kind != "r":
                    continue
                witness = oracle.necessity_witness_race_record(
                    views, execution, i, (a, b)
                )
                assert (b, a) in data_race_order(witness[i], program).pairs
                exercised += 1
        assert exercised > 0

    def test_covered_edge_rejected(self, corpus):
        parsed = corpus["race-agreement"]
        with pytest.raises(PreconditionViolated):
            oracle.necessity_witness_race_record(
                parsed.views, parsed.execution, 1, ("w1", "w2")
            )

    def test_foreign_write_order_edge_rejected(self, corpus):
        # process 2's copy of the race is enforced by the strong write
        # order, so it is never a record edge
        parsed = corpus["write-race"]
        with pytest.raises(PreconditionViolated):
            oracle.necessity_witness_race_record(
                parsed.views, parsed.execution, 2, ("w2", "w1")
            )

    def test_agrees_with_enumeration(self, corpus):
        parsed = corpus["write-race"]
        record = minimal_race_record(parsed.views, parsed.execution)
        reduced = record.drop(1, ("w2", "w1"))
        verdict = oracle.is_good_race_record(parsed.views, parsed.program, reduced)
        assert not verdict.good
        witness = oracle.necessity_witness_race_record(
            parsed.views, parsed.execution, 1, ("w2", "w1")
        )
        assert oracle.certifies(witness, parsed.program, reduced, STRONG_CAUSAL)


def unchecked_rows(views, program):
    """A stand-in for `strongly_causal_rows` that builds the same rows
    and passes every set."""
    return [order_rows(v, program) for v in views.views], True


class TestWitnessCertifiedOnce:
    """Each witness is checked for strong causality once and then for the
    reduced record; both checks still reject what they must."""

    @staticmethod
    def completing_to(views):
        """A stand-in for the least replay that returns `views`."""

        def least_replay(program, base, pairs):
            return views, 0

        return least_replay

    def test_race_witness_rejects_the_original_race_order(self, corpus, monkeypatch):
        parsed = corpus["race-agreement"]
        analysis = RaceAnalysis(parsed.views, parsed.program)
        monkeypatch.setattr(oracle, "_least_replay", self.completing_to(parsed.views))
        with pytest.raises(InternalInvariant, match="reproduces the original data-race order"):
            oracle.race_witness(analysis, 2, ("w2", "w1"))

    def test_race_witness_rejects_a_reversed_candidate_edge(self, corpus, monkeypatch):
        parsed = corpus["race-agreement"]
        analysis = RaceAnalysis(parsed.views, parsed.program)
        assert oracle.race_witness(analysis, 2, ("w2", "w1"))[2].sequence == ("w1", "w2")
        # process 2 flips its edge, and process 1 reverses (w1, w2): an
        # edge of its candidate record that the minimal record leaves out
        assert not analysis.in_record(1, ("w1", "w2"))
        breaking = parsed.views.replace(View(2, ("w1", "w2"))).replace(View(1, ("w2", "w1")))
        monkeypatch.setattr(oracle, "_least_replay", self.completing_to(breaking))
        # no strongly causal set with process 2's flip breaks the record
        # here, so the rows test passes the views' own order rows on
        # unchecked to reach the mask test
        monkeypatch.setattr(oracle, "strongly_causal_rows", unchecked_rows)
        with pytest.raises(InternalInvariant, match="does not certify the reduced record"):
            oracle.race_witness(analysis, 2, ("w2", "w1"))

    def test_view_witness_rejects_a_non_strongly_causal_swap(self):
        program = Program.of({1: [Operation(WRITE, 1, "x", "a"), Operation(READ, 1, "x", "b")]})
        execution = Execution(program, {"b": "a"})
        views = ViewSet.of([View(1, ("a", "b"))])
        record = Record.of({1: {("a", "b")}})
        with pytest.raises(InternalInvariant, match="swapped views are not strongly causal"):
            oracle.view_witness(views, execution, record, 1, ("a", "b"))

    def test_witnesses_reject_views_that_keep_program_order_but_break_sco(
        self, monkeypatch
    ):
        # two writers on x; process 1 placing its own write a after b adds
        # the SCO edge (b, a), which process 2's view, placing a first,
        # contradicts, and the SCO edge (a, b) of process 2 contradicts
        # process 1's view in turn
        program = Program.of({1: [Operation(WRITE, 1, "x", "a")],
                              2: [Operation(WRITE, 2, "x", "b")]})
        execution = Execution(program, {})
        original = ViewSet.of([View(1, ("a", "b")), View(2, ("a", "b"))])
        breaking = ViewSet.of([View(1, ("b", "a")), View(2, ("a", "b"))])
        assert check_strong_causal(original, execution) is None
        for view in breaking.views:
            po = program.process_index(view.process).po_rows
            assert all(not p & ~o for p, o in zip(po, order_rows(view, program)))
        bad = "view of process 1 must order a before b but orders them the other way"
        assert str(check_strong_causal(breaking, execution)) == bad

        with pytest.raises(InternalInvariant) as swapped:
            oracle.view_witness(original, execution, Record.of({1: {("a", "b")}}), 1, ("a", "b"))
        assert str(swapped.value) == f"swapped views are not strongly causal: {bad}"

        analysis = RaceAnalysis(original, program)
        assert analysis.in_record(2, ("a", "b"))
        monkeypatch.setattr(oracle, "_least_replay", self.completing_to(breaking))
        with pytest.raises(InternalInvariant) as raced:
            oracle.race_witness(analysis, 2, ("a", "b"))
        assert str(raced.value) == f"completion is not strongly causal: {bad}"

        partials = {i: Relation(program.universe_of(i), program.process_index(i).po_pairs)
                    for i in program.processes}
        with pytest.raises(InternalInvariant) as completed:
            oracle.extend_to_views(partials, program)
        assert str(completed.value) == f"completion is not strongly causal: {bad}"

    def test_view_witness_rejects_a_reversed_record_edge(self, corpus):
        parsed = corpus["indirect-order"]
        record = minimal_view_record(parsed.views, parsed.execution)
        # an edge of process 1 that the original views, and so the swapped
        # views, reverse
        record = Record.of({i: record.edges(i) | ({("w2", "w1")} if i == 1 else set())
                            for i in record.processes})
        with pytest.raises(InternalInvariant, match="do not certify the reduced record"):
            oracle.view_witness(parsed.views, parsed.execution, record, 2, ("w2", "w1"))


# an edge argument that is not a pair of operation ids is in no record
MALFORMED_EDGES = [("w1",), ("w1", "w2", "w3"), None, ["w2", "w1"], ("w2", ["w1"])]


class TestMalformedWitnessEdge:
    """Every witness entry point rejects an edge argument that is not a
    pair of operation ids as it rejects an edge outside the record."""

    @staticmethod
    def entry_points(parsed):
        views, execution = parsed.views, parsed.execution
        record = minimal_view_record(views, execution)
        analysis = RaceAnalysis(views, parsed.program)
        return {
            "necessity_witness_view_record": lambda i, e: (
                oracle.necessity_witness_view_record(views, execution, i, e)
            ),
            "view_witness": lambda i, e: oracle.view_witness(views, execution, record, i, e),
            "necessity_witness_race_record": lambda i, e: (
                oracle.necessity_witness_race_record(views, execution, i, e)
            ),
            "race_witness": lambda i, e: oracle.race_witness(analysis, i, e),
        }

    @pytest.mark.parametrize("edge", MALFORMED_EDGES, ids=repr)
    @pytest.mark.parametrize("fixture", ["indirect-order", "race-agreement", "write-race"])
    def test_rejected_as_not_required(self, corpus, fixture, edge):
        for name, witness in self.entry_points(corpus[fixture]).items():
            for process in (1, 2):
                expected = f"edge {edge} is not a required record edge of process {process}"
                with pytest.raises(PreconditionViolated) as raised:
                    witness(process, edge)
                assert str(raised.value) == expected, name

    @pytest.mark.parametrize("edge", MALFORMED_EDGES, ids=repr)
    def test_in_record_is_false(self, corpus, edge):
        parsed = corpus["race-agreement"]
        analysis = RaceAnalysis(parsed.views, parsed.program)
        assert analysis.in_record(2, ("w2", "w1"))
        assert not analysis.in_record(2, edge)
