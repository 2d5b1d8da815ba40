"""Replay enumeration, goodness verdicts, completions and witnesses."""

import pytest

from causalrnr import oracle
from causalrnr.consistency import (
    CAUSAL,
    STRONG_CAUSAL,
    check_strong_causal,
    strong_causal_order,
)
from causalrnr.errors import BudgetExceeded, InternalInvariant, PreconditionViolated
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
)
from causalrnr.race_record import RaceAnalysis, minimal_race_record, naive_causal_race_record
from causalrnr.records import Record
from causalrnr.relations import Relation, transitive_closure
from causalrnr.view_record import (
    indirectly_enforced,
    minimal_view_record,
    naive_causal_view_record,
)


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

    @pytest.mark.parametrize("query", sorted(QUERIES))
    def test_self_loop(self, query):
        program, views = _two_readers()
        record = Record.of({1: set(), 2: {("w2", "w2")}})
        with pytest.raises(ValueError, match="record for process 2 is malformed"):
            self.QUERIES[query](program, views, record)

    def test_cyclic_record_admits_no_replay(self):
        program, views = _two_readers()
        record = Record.of({1: set(), 2: {("r2", "w2")}})
        assert list(oracle.enumerate_certifying(program, record, STRONG_CAUSAL)) == []
        verdict = oracle.is_good_view_record(views, program, record)
        assert verdict.good and verdict.enumerated == 0


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


class TestExtendToViews:
    def test_identity_on_total_orders(self, corpus):
        parsed = corpus["indirect-order"]
        partials = {
            v.process: v.order() for v in parsed.views.views
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
