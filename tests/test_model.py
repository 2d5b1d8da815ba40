"""Data model: views, writes-to derivation, race order, write-read-write."""

import pytest

from causalrnr.errors import UniverseMismatch
from causalrnr.model import (
    Execution,
    Operation,
    Program,
    View,
    ViewSet,
    data_race_order,
    derive_writes_to,
    validate_view,
    write_read_write_order,
)
from causalrnr.relations import Relation


def single_var_program():
    return Program.of(
        {
            1: [Operation("w", 1, "x", "w1"), Operation("r", 1, "x", "r1")],
            2: [Operation("w", 2, "x", "w2")],
        }
    )


class TestProgram:
    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError):
            Program.of({1: [Operation("w", 1, "x", "a"), Operation("r", 1, "x", "a")]})

    def test_po_is_disjoint_union_of_chains(self, corpus):
        program = corpus["separation"].program
        assert ("w1x", "r21x") in program.po_pairs
        assert ("w1x", "w2y") not in program.po_pairs

    def test_universe_is_own_plus_writes(self, corpus):
        program = corpus["separation"].program
        assert program.universe_of(1) == (
            "r11x", "r1y", "r21x", "w1x", "w1y", "w2x", "w2y",
        )


class TestDataRaceOrder:
    def test_single_variable_view_is_whole_order(self):
        program = single_var_program()
        view = View(1, ("w2", "w1", "r1"))
        assert data_race_order(view, program).pairs == Relation.total(view.sequence).pairs

    def test_keeps_per_variable_pairs_only(self, corpus):
        parsed = corpus["separation"]
        dro = data_race_order(parsed.views[1], parsed.program)
        assert ("w2x", "w1x") in dro.pairs
        assert ("w2y", "w1y") in dro.pairs
        assert ("w1x", "w2y") not in dro.pairs

    def test_empty_view(self):
        program = Program.of({1: []})
        assert data_race_order(View(1, ()), program).pairs == frozenset()

    def test_contained_in_view_order_and_total_per_variable(self, corpus):
        for parsed in corpus.values():
            if parsed.views is None:
                continue
            for view in parsed.views.views:
                dro = data_race_order(view, parsed.program)
                assert dro.pairs <= Relation.total(view.sequence).pairs
                for a in view.sequence:
                    for b in view.sequence:
                        if a < b and parsed.program.var_of(a) == parsed.program.var_of(b):
                            assert (a, b) in dro.pairs or (b, a) in dro.pairs


def chained_data_race_order(view, program):
    """The per-variable chains of the view, closed, as first written."""
    chains = {}
    for o in view.sequence:
        chains.setdefault(program.var_of(o), []).append(o)
    pairs = {(a, b) for ids in chains.values() for k, a in enumerate(ids) for b in ids[k + 1:]}
    return Relation(tuple(view.sequence), frozenset(pairs))


def test_data_race_order_is_the_chained_reference(corpus):
    compared = 0
    for parsed in corpus.values():
        if parsed.views is None:
            continue
        for view in parsed.views.views:
            expected = chained_data_race_order(view, parsed.program)
            assert data_race_order(view, parsed.program) == expected
            compared += 1
    assert compared > 10


@pytest.mark.parametrize(
    "sequence",
    [("w1", "r1"), ("w2", "w1", "r1", "r1"), ("w2", "w1", "r1", "zz"), ("w2", "w1")],
    ids=["missing-write", "repeated", "unknown", "missing-own"],
)
def test_data_race_order_rejects_a_view_with_the_wrong_universe(sequence):
    with pytest.raises(UniverseMismatch, match="view of process 1 must order exactly"):
        data_race_order(View(1, sequence), single_var_program())


class TestValidateView:
    def test_bundled_views_are_valid(self, corpus):
        parsed = corpus["separation"]
        for view in parsed.views.views:
            assert validate_view(view, parsed.execution) is None

    def test_late_foreign_write_is_still_valid(self, corpus):
        # moving w2y after r2y keeps w1y as the last y-write before r2y
        parsed = corpus["separation"]
        moved = View(2, ("w1x", "w2x", "r12x", "w1y", "r2y", "w2y", "r22x"))
        assert validate_view(moved, parsed.execution) is None

    def test_moving_the_source_breaks_validity(self, corpus):
        parsed = corpus["separation"]
        broken = View(2, ("w1x", "w2x", "r12x", "w2y", "r2y", "w1y", "r22x"))
        bad = validate_view(broken, parsed.execution)
        assert bad is not None and bad.kind == "read-validity"
        assert bad.process == 2 and bad.variable == "y"

    def test_write_only_process_is_vacuously_valid(self):
        program = Program.of(
            {1: [Operation("w", 1, "x", "w1")], 2: [Operation("w", 2, "y", "w2")]}
        )
        execution = Execution(program, {})
        assert validate_view(View(1, ("w1", "w2")), execution) is None

    def test_universe_mismatch_raises(self, corpus):
        parsed = corpus["separation"]
        with pytest.raises(UniverseMismatch):
            validate_view(View(1, ("w1x",)), parsed.execution)


class TestDeriveWritesTo:
    def test_bundled_views_derive_the_recorded_map(self, corpus):
        parsed = corpus["separation"]
        derived = derive_writes_to(parsed.views, parsed.program)
        assert derived.writes_to == {
            "r11x": "w1x",
            "r12x": "w2x",
            "r1y": "w2y",
            "r21x": "w1x",
            "r22x": "w2x",
            "r2y": "w1y",
        }

    def test_initial_reads_stay_unmapped(self, corpus):
        parsed = corpus["naive-view-record-replay"]
        derived = derive_writes_to(parsed.views, parsed.program)
        assert derived.writes_to == {}

    def test_read_before_any_write_is_unmapped(self):
        program = single_var_program()
        views = ViewSet.of([View(1, ("r1", "w1", "w2")), View(2, ("w1", "w2"))])
        derived = derive_writes_to(views, program)
        assert "r1" not in derived.writes_to

    def test_round_trip_with_validate(self, corpus, generated_corpus):
        everything = [p for p in corpus.values() if p.views is not None]
        for parsed in everything:
            derived = derive_writes_to(parsed.views, parsed.program)
            for view in parsed.views.views:
                assert validate_view(view, derived) is None
        for execution, views in generated_corpus:
            derived = derive_writes_to(views, execution.program)
            assert derived.writes_to == execution.writes_to


class TestWriteReadWrite:
    def test_separation_fixture(self, corpus):
        parsed = corpus["separation"]
        wo = write_read_write_order(parsed.execution)
        # cross-process edge from the y exchange, plus the same-process
        # pairs the definition also yields
        assert wo.pairs == {("w2y", "w1y"), ("w1x", "w1y"), ("w2x", "w2y")}
        cross = {
            (a, b)
            for a, b in wo.pairs
            if parsed.program.proc_of(a) != parsed.program.proc_of(b)
        }
        assert cross == {("w2y", "w1y")}

    def test_no_reads_no_edges(self):
        program = Program.of(
            {1: [Operation("w", 1, "x", "w1")], 2: [Operation("w", 2, "y", "w2")]}
        )
        assert write_read_write_order(Execution(program, {})).pairs == frozenset()

    def test_four_process_chain_fixture(self, corpus):
        parsed = corpus["naive-view-record"]
        wo = write_read_write_order(parsed.execution)
        assert wo.pairs == {("w1", "w2"), ("w3", "w4")}


class TestViewSet:
    def test_views_are_kept_in_process_order(self):
        a, b, c = View(1, ("w1",)), View(2, ("w1",)), View(3, ("w1",))
        assert ViewSet.of([a, b, c]).views == (a, b, c)
        assert ViewSet.of([c, a, b]).views == (a, b, c)
        assert ViewSet([b, a]).views == (a, b)
        assert ViewSet((c, b, a)).views == (a, b, c)
        assert ViewSet([a, c, b]) == ViewSet((a, b, c))

    @pytest.mark.parametrize("processes", [(1, 1), (2, 1, 2), (1, 2, 2), (3, 1, 3)])
    def test_duplicate_process_rejected(self, processes):
        views = [View(p, ("w1",)) for p in processes]
        with pytest.raises(ValueError, match="duplicate view for a process"):
            ViewSet.of(views)
        with pytest.raises(ValueError, match="duplicate view for a process"):
            ViewSet(views)

    def test_list_input_is_stored_as_a_tuple(self):
        a, b = View(1, ("w1",)), View(2, ("w1",))
        from_list, from_tuple = ViewSet([a, b]), ViewSet((a, b))
        assert type(from_list.views) is tuple
        assert from_list.views == (a, b)
        assert from_list == from_tuple
        assert hash(from_list) == hash(from_tuple)

    def test_single_view_and_empty_set(self):
        a = View(1, ("w1",))
        assert ViewSet([a]).views == (a,)
        assert ViewSet.of([a]) == ViewSet((a,))
        assert ViewSet([]).views == ()
        assert ViewSet.of([]) == ViewSet(())
        assert ViewSet(()).processes() == ()
