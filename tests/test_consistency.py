"""Consistency checkers, strong causal order, existential search, cache."""

import random

import pytest

from causalrnr import oracle

from causalrnr.consistency import (
    CAUSAL,
    STRONG_CAUSAL,
    check_cache,
    check_causal,
    check_strong_causal,
    find_explanation,
    strong_causal_order,
)
from causalrnr.errors import BudgetExceeded, UniverseMismatch
from causalrnr.model import (
    Execution,
    Operation,
    Program,
    View,
    ViewSet,
    derive_writes_to,
)
from causalrnr.records import Record
from causalrnr.relations import has_cycle
from conftest import resourced, small_generated


class TestStrongCausalOrder:
    def test_divergent_two_write_views_have_empty_order(self, corpus):
        parsed = corpus["indirect-order"]
        assert strong_causal_order(parsed.views, parsed.program).pairs == frozenset()

    def test_agreeing_replay_views_create_the_edge(self, corpus):
        program = corpus["indirect-order"].program
        flipped = ViewSet.of(
            [View(1, ("w2", "w1")), View(2, ("w2", "w1")), View(3, ("w2", "w1"))]
        )
        assert strong_causal_order(flipped, program).pairs == {("w2", "w1")}

    def test_single_process_order_is_its_write_chain(self):
        program = Program.of(
            {1: [Operation("w", 1, "x", "a"), Operation("w", 1, "y", "b")]}
        )
        views = ViewSet.of([View(1, ("a", "b"))])
        sco = strong_causal_order(views, program)
        assert sco.pairs == {("a", "b")}
        assert sco.pairs <= program.po_pairs


class TestCheckers:
    def test_separation_is_causal_but_not_strongly_causal(self, corpus):
        parsed = corpus["separation"]
        assert check_causal(parsed.views, parsed.execution) is None
        bad = check_strong_causal(parsed.views, parsed.execution)
        assert bad is not None and bad.kind == "order"
        # the conflict is over the x writes observed in opposite orders
        assert set(bad.edge) == {"w1x", "w2x"}

    def test_read_validity_reported_first(self, corpus):
        parsed = corpus["separation"]
        seq = list(parsed.views[1].sequence)
        a, b = seq.index("w2y"), seq.index("r1y")
        seq[a], seq[b] = seq[b], seq[a]
        broken = parsed.views.replace(View(1, tuple(seq)))
        bad = check_causal(broken, parsed.execution)
        assert bad is not None and bad.kind == "read-validity"

    def test_single_process_valid_view_is_consistent(self):
        program = Program.of(
            {1: [Operation("w", 1, "x", "a"), Operation("r", 1, "x", "b")]}
        )
        execution = Execution(program, {"b": "a"})
        views = ViewSet.of([View(1, ("a", "b"))])
        assert check_causal(views, execution) is None
        assert check_strong_causal(views, execution) is None

    def test_divergent_views_are_strongly_causal(self, corpus):
        parsed = corpus["indirect-order"]
        assert check_strong_causal(parsed.views, parsed.execution) is None

    def test_initial_value_replay_is_causal_but_not_strongly_causal(self, corpus):
        parsed = corpus["naive-view-record-replay"]
        assert check_causal(parsed.views, parsed.execution) is None
        assert check_strong_causal(parsed.views, parsed.execution) is not None

    def test_universe_mismatch_raises(self, corpus):
        parsed = corpus["separation"]
        broken = parsed.views.replace(View(1, parsed.views[1].sequence[:-1]))
        with pytest.raises(UniverseMismatch):
            check_causal(broken, parsed.execution)

    def test_strong_implies_causal_on_generated(self, generated_corpus):
        for execution, views in generated_corpus:
            assert check_strong_causal(views, execution) is None
            assert check_causal(views, execution) is None
            sco = strong_causal_order(views, execution.program)
            assert not has_cycle(sco)


class TestFindExplanation:
    def test_separation_has_causal_explanation(self, corpus):
        parsed = corpus["separation"]
        found = find_explanation(parsed.execution, CAUSAL)
        assert found is not None
        assert check_causal(found, parsed.execution) is None

    def test_separation_has_no_strongly_causal_explanation(self, corpus):
        parsed = corpus["separation"]
        assert find_explanation(parsed.execution, STRONG_CAUSAL) is None

    def test_empty_execution(self):
        program = Program.of({1: []})
        found = find_explanation(Execution(program, {}), STRONG_CAUSAL)
        assert found is not None
        assert found[1].sequence == ()

    def test_strong_explanation_implies_causal_one(self, generated_corpus):
        for execution, _ in generated_corpus[:12]:
            strong = find_explanation(execution, STRONG_CAUSAL)
            assert strong is not None  # generated fixtures are strongly causal
            assert find_explanation(execution, CAUSAL) is not None

    def test_cap_enforced(self, corpus):
        parsed = corpus["separation"]
        with pytest.raises(BudgetExceeded):
            find_explanation(parsed.execution, CAUSAL, max_ops=4)

    def test_witness_is_deterministic(self, corpus):
        parsed = corpus["separation"]
        a = find_explanation(parsed.execution, CAUSAL)
        b = find_explanation(parsed.execution, CAUSAL)
        assert a.sort_key() == b.sort_key()


def _explanation_corpus():
    """Generated executions, each followed by a copy with one read
    re-sourced, which may have no explanation."""
    out = []
    for seed, (execution, _) in enumerate(small_generated()):
        out.append(execution)
        copy = resourced(execution, random.Random(seed))
        if copy is not None:
            out.append(copy)
    return out


@pytest.mark.parametrize("model", [STRONG_CAUSAL, CAUSAL])
def test_explanation_is_first_certifying_replay_with_its_reads(model):
    """An explanation is a certifying replay of the empty record whose
    reads are the given ones, so `find_explanation` and the oracle's
    enumeration, two callers of one descent, agree on the least one."""
    outcomes = set()
    for execution in _explanation_corpus():
        program = execution.program
        empty = Record.of({p: () for p in program.processes})
        expected = next(
            (
                views
                for views in oracle.enumerate_certifying(program, empty, model)
                if derive_writes_to(views, program).writes_to == execution.writes_to
            ),
            None,
        )
        found = find_explanation(execution, model)
        assert found == expected, execution
        outcomes.add(found is None)
    assert outcomes == {True, False}


class TestCheckCache:
    def test_separation_is_cache_consistent(self, corpus):
        parsed = corpus["separation"]
        assert check_cache(parsed.execution) is None

    def test_single_write_and_reader(self):
        program = Program.of(
            {1: [Operation("w", 1, "x", "a")], 2: [Operation("r", 2, "x", "b")]}
        )
        assert check_cache(Execution(program, {"b": "a"})) is None

    def test_initial_read_after_own_write_violates(self):
        program = Program.of(
            {1: [Operation("w", 1, "x", "a"), Operation("r", 1, "x", "b")]}
        )
        bad = check_cache(Execution(program, {}))
        assert bad is not None and bad.kind == "cache" and bad.variable == "x"

    def test_crossing_reads_violate(self):
        # each process reads the other's write after its own: no single
        # per-variable total order satisfies both reads
        program = Program.of(
            {
                1: [Operation("w", 1, "x", "a"), Operation("r", 1, "x", "c")],
                2: [Operation("w", 2, "x", "b"), Operation("r", 2, "x", "d")],
            }
        )
        bad = check_cache(Execution(program, {"c": "b", "d": "a"}))
        assert bad is not None and bad.variable == "x"
