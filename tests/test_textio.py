"""File grammar: round-trips, derivation defaults, parse/semantic errors."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from causalrnr import fixtures
from causalrnr.errors import ParseError, SemanticError
from causalrnr.generator import GenParams, gen_strong_causal
from causalrnr.records import Record
from causalrnr.textio import (
    parse_execution,
    parse_record,
    serialize_execution,
    serialize_record,
)


class TestParse:
    def test_bundled_fixture_shapes(self, corpus):
        parsed = corpus["indirect-order"]
        assert parsed.program.processes == (1, 2, 3)
        assert len(parsed.program.writes) == 2
        assert len(parsed.views.views) == 3

    def test_reads_omitted_derives_from_views(self):
        text = (
            "process 1: w(x)#a\n"
            "process 2: r(x)#b\n"
            "view 1: a\n"
            "view 2: a b\n"
        )
        parsed = parse_execution(text)
        assert parsed.execution.writes_to == {"b": "a"}

    def test_explicit_empty_reads_means_initial_values(self):
        text = (
            "process 1: w(x)#a\n"
            "process 2: r(x)#b\n"
            "view 1: a\n"
            "view 2: b a\n"
            "reads:\n"
        )
        parsed = parse_execution(text)
        assert parsed.execution.writes_to == {}

    def test_comments_and_blank_lines_ignored(self):
        text = "# header\n\nprocess 1: w(x)#a  # trailing note\n"
        parsed = parse_execution(text)
        assert parsed.program.all_ops == ("a",)

    def test_malformed_op_token_reports_position(self):
        with pytest.raises(ParseError) as err:
            parse_execution("process 1: w(x)a\n")
        assert err.value.line == 1 and err.value.column == 12

    def test_malformed_view_token(self):
        with pytest.raises(ParseError):
            parse_execution("process 1: w(x)#a\nview 1: a->b\n")

    def test_duplicate_id_rejected(self):
        with pytest.raises(SemanticError):
            parse_execution("process 1: w(x)#a r(x)#a\n")

    def test_writes_to_variable_mismatch_rejected(self):
        text = "process 1: w(x)#a\nprocess 2: r(y)#b\nreads: b<-a\n"
        with pytest.raises(SemanticError):
            parse_execution(text)

    def test_view_universe_mismatch_rejected(self):
        text = "process 1: w(x)#a\nprocess 2: r(x)#b\nview 1: a\nview 2: b\n"
        with pytest.raises(SemanticError):
            parse_execution(text)

    def test_views_must_cover_all_processes(self):
        text = "process 1: w(x)#a\nprocess 2: r(x)#b\nview 1: a\n"
        with pytest.raises(SemanticError):
            parse_execution(text)


class TestRoundTrip:
    def test_bundled_fixtures_round_trip(self, corpus):
        for name, parsed in corpus.items():
            text = serialize_execution(parsed.program, parsed.execution, parsed.views)
            again = parse_execution(text)
            assert again.program == parsed.program
            assert again.execution.writes_to == parsed.execution.writes_to
            assert again.views == parsed.views
            assert serialize_execution(
                again.program, again.execution, again.views
            ) == text

    @given(
        st.integers(min_value=0, max_value=10_000),
        st.integers(min_value=1, max_value=3),
        st.integers(min_value=0, max_value=3),
    )
    @settings(max_examples=60, deadline=None)
    def test_generated_fixtures_round_trip(self, seed, processes, opp):
        params = GenParams(
            seed=seed, processes=processes, ops_per_process=opp, variables=2
        )
        execution, views = gen_strong_causal(params)
        text = serialize_execution(execution.program, execution, views)
        again = parse_execution(text)
        assert again.program == execution.program
        assert again.execution.writes_to == execution.writes_to
        assert again.views == views


class TestRecordFiles:
    def test_round_trip(self, corpus):
        parsed = corpus["indirect-order"]
        record = Record.of({1: set(), 2: {("w2", "w1")}, 3: {("w1", "w2")}})
        text = serialize_record(record, parsed.program)
        assert parse_record(text, parsed.program) == record
        assert serialize_record(parse_record(text, parsed.program), parsed.program) == text

    def test_unknown_process_rejected(self, corpus):
        parsed = corpus["indirect-order"]
        with pytest.raises(SemanticError):
            parse_record("record 9: w1->w2\n", parsed.program)

    def test_edge_outside_universe_rejected(self, corpus):
        parsed = corpus["separation"]
        with pytest.raises(SemanticError):
            parse_record("record 1: r12x->w1x\n", parsed.program)

    def test_malformed_edge_rejected(self, corpus):
        parsed = corpus["indirect-order"]
        with pytest.raises(ParseError):
            parse_record("record 1: w1<w2\n", parsed.program)

    def test_duplicate_process_line_rejected(self, corpus):
        parsed = corpus["indirect-order"]
        with pytest.raises(SemanticError, match="duplicate record line for process 2"):
            parse_record("record 2: w2->w1\nrecord 2:\n", parsed.program)


def test_fixture_texts_match_registry():
    for name in fixtures.names():
        parsed = fixtures.load(name)
        assert parsed.program.processes
