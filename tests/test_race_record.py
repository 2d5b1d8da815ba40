"""Race-fidelity records: strong write order, obligation graphs,
flip cascades, redundancy, the minimal record and the naive scheme."""

import pytest

from causalrnr.consistency import check_strong_causal, strong_causal_order
from causalrnr.errors import NotStronglyCausal, PreconditionViolated
from causalrnr.model import Operation, Program, View, ViewSet, Execution, data_race_order
from causalrnr.race_record import (
    RaceAnalysis,
    flip_cascade,
    indirectly_enforced_races,
    minimal_race_record,
    naive_causal_race_record,
    strong_write_order,
)


def unrolled_swo_oracle(views, program):
    """Independent fixpoint: recompute every level from scratch with plain
    dict/set reachability, no package kernels."""

    def reach_pairs(pairs, universe):
        succ = {o: set() for o in universe}
        for a, b in pairs:
            succ[a].add(b)
        closed = set()
        for src in universe:
            stack, seen = [src], set()
            while stack:
                cur = stack.pop()
                for nxt in succ[cur]:
                    if nxt not in seen:
                        seen.add(nxt)
                        stack.append(nxt)
            closed |= {(src, t) for t in seen if t != src}
        return closed

    writes = set(program.writes)
    swo = set()
    while True:
        new = set(swo)
        for view in views.views:
            i = view.process
            universe = program.universe_of(i)
            base = set(data_race_order(view, program).pairs)
            base |= program.po_restricted(universe)
            base |= swo
            for a, b in reach_pairs(base, universe):
                if a in writes and b in writes and program.proc_of(b) == i:
                    new.add((a, b))
        if new == swo:
            return frozenset(swo)
        swo = new


class TestStrongWriteOrder:
    def test_distinct_variables_no_order(self, corpus):
        parsed = corpus["indirect-order"]
        swo = strong_write_order(parsed.views, parsed.program)
        assert swo.relation.pairs == frozenset()

    def test_own_write_race_is_level_one(self, corpus):
        parsed = corpus["write-race"]
        swo = strong_write_order(parsed.views, parsed.program)
        assert swo.relation.pairs == {("w2", "w1")}
        assert swo.level_of(("w2", "w1")) == 1

    def test_level_of_an_edge_outside_the_order_is_a_precondition(self, corpus):
        parsed = corpus["write-race"]
        swo = strong_write_order(parsed.views, parsed.program)
        with pytest.raises(PreconditionViolated, match=r"edge \('w1', 'w2'\) is not in"):
            swo.level_of(("w1", "w2"))

    def test_matches_unrolled_oracle(self, corpus, generated_corpus):
        cases = [(c.execution, c.views) for c in corpus.values() if c.views]
        cases += list(generated_corpus[:15])
        for execution, views in cases:
            swo = strong_write_order(views, execution.program)
            assert swo.relation.pairs == unrolled_swo_oracle(views, execution.program)

    def test_read_chained_order_in_four_process_fixture(self, corpus):
        # process 4's race chain w3y < r4y plus program order r4y < w4a
        # forces (w3y, w4a) even though both are writes of other variables
        parsed = corpus["naive-race-record"]
        swo = strong_write_order(parsed.views, parsed.program)
        assert ("w3y", "w4a") in swo.relation.pairs
        assert ("w1x", "w2z") in swo.relation.pairs

    def test_single_process_chain(self):
        program = Program.of(
            {1: [Operation("w", 1, "x", "a"), Operation("w", 1, "y", "b")]}
        )
        views = ViewSet.of([View(1, ("a", "b"))])
        swo = strong_write_order(views, program)
        assert swo.relation.pairs == {("a", "b")}

    def test_subset_of_strong_causal_order(self, generated_corpus):
        for execution, views in generated_corpus:
            swo = strong_write_order(views, execution.program)
            sco = strong_causal_order(views, execution.program)
            assert swo.relation.pairs <= sco.pairs

    def test_levels_start_at_one(self, generated_corpus):
        for execution, views in generated_corpus:
            swo = strong_write_order(views, execution.program)
            assert all(level >= 1 for _, level in swo.level)


class TestObligationGraph:
    def test_membership_matches_swo_for_own_targets(self, corpus, generated_corpus):
        cases = [
            (c.execution, c.views)
            for c in corpus.values()
            if c.views and check_strong_causal(c.views, c.execution) is None
        ]
        cases += list(generated_corpus[:15])
        for execution, views in cases:
            program = execution.program
            analysis = RaceAnalysis(views, program)
            swo = analysis.strong_write_order().relation.pairs
            for view in views.views:
                i = view.process
                graph = analysis.obligation(i).pairs
                assert swo <= graph
                for a in program.writes:
                    for b in program.writes:
                        if a != b and program.proc_of(b) == i:
                            assert ((a, b) in graph) == ((a, b) in swo)

    def test_single_process_no_reads_is_po_closure(self):
        program = Program.of(
            {
                1: [
                    Operation("w", 1, "x", "a"),
                    Operation("w", 1, "y", "b"),
                    Operation("w", 1, "x", "c"),
                ]
            }
        )
        views = ViewSet.of([View(1, ("a", "b", "c"))])
        graph = RaceAnalysis(views, program).obligation(1)
        assert graph.pairs == {("a", "b"), ("a", "c"), ("b", "c")}


class TestFlipCascade:
    def test_empty_when_no_own_write_downstream(self, corpus):
        parsed = corpus["race-agreement"]
        cascade = flip_cascade(parsed.views, parsed.program, 3, "w1", "w2")
        assert cascade.union == frozenset()  # process 3 has no writes

    def test_race_agreement_level_one(self, corpus):
        parsed = corpus["race-agreement"]
        cascade = flip_cascade(parsed.views, parsed.program, 1, "w1", "w2")
        assert cascade.levels[0] == {("w2", "w1")}
        assert cascade.union == {("w2", "w1")}

    def test_read_target_is_empty_by_convention(self, corpus):
        parsed = corpus["naive-race-record"]
        cascade = flip_cascade(parsed.views, parsed.program, 2, "w1x", "r2x")
        assert cascade.levels == ()
        assert cascade.union == frozenset()

    def test_targets_reachable_in_strong_write_order(self, generated_corpus):
        for execution, views in generated_corpus[:20]:
            program = execution.program
            analysis = RaceAnalysis(views, program)
            swo = analysis.strong_write_order().relation.pairs
            for view in views.views:
                i = view.process
                for o1, o2 in sorted(analysis.dro(i).pairs):
                    if program.ops[o1].kind != "w" or program.ops[o2].kind != "w":
                        continue
                    for _, w4 in analysis.flip_cascade(i, o1, o2).union:
                        assert o1 == w4 or (o1, w4) in swo

    def test_levels_monotone(self, generated_corpus):
        for execution, views in generated_corpus[:20]:
            program = execution.program
            analysis = RaceAnalysis(views, program)
            for view in views.views:
                i = view.process
                for o1, o2 in sorted(analysis.dro(i).pairs):
                    if program.ops[o2].kind != "w":
                        continue
                    cascade = analysis.flip_cascade(i, o1, o2)
                    for earlier, later in zip(cascade.levels, cascade.levels[1:]):
                        assert earlier <= later


class TestIndirectlyEnforcedRaces:
    def test_third_party_cycle(self, corpus):
        parsed = corpus["race-agreement"]
        covered = indirectly_enforced_races(parsed.views, parsed.program, 1)
        assert covered.pairs == {("w1", "w2")}

    def test_two_processes_cover_only_the_enforced_side(self, corpus):
        # process 1's own-write pair is not covered (dropping it is the
        # necessity counterexample); process 2's copy of the same race is:
        # flipping it would collide with process 1's obligations
        parsed = corpus["write-race"]
        assert indirectly_enforced_races(parsed.views, parsed.program, 1).pairs == frozenset()
        assert indirectly_enforced_races(parsed.views, parsed.program, 2).pairs == {
            ("w2", "w1")
        }

    def test_forced_cascades_never_mark_redundant(self, generated_corpus):
        # when the first cascade level is already forced by the strong
        # write order, the pair must stay recordable
        for execution, views in generated_corpus[:20]:
            program = execution.program
            analysis = RaceAnalysis(views, program)
            swo = analysis.strong_write_order().relation.pairs
            for view in views.views:
                i = view.process
                covered = analysis.indirectly_enforced(i)
                for o1, o2 in sorted(analysis.dro(i).pairs):
                    if program.ops[o2].kind != "w":
                        continue
                    cascade = analysis.flip_cascade(i, o1, o2)
                    if cascade.levels and cascade.levels[0] <= swo:
                        assert (o1, o2) not in covered


class TestUnknownInput:
    """Every public entry point that takes a process or an operation
    raises ValueError for one the program lacks, as `obligation` does."""

    CALLS = {
        "obligation": lambda a, views, program: a.obligation(9),
        "obligation_rows": lambda a, views, program: a.obligation_rows(9),
        "dro": lambda a, views, program: a.dro(9),
        "dro_rows": lambda a, views, program: a.dro_rows(9),
        "indirectly_enforced": lambda a, views, program: a.indirectly_enforced(9),
        "flip_cascade process": lambda a, views, program: a.flip_cascade(9, "w1", "w2"),
        "flip_cascade operation": lambda a, views, program: a.flip_cascade(1, "w9", "w1"),
        "cascade_levels": lambda a, views, program: a.cascade_levels(1, "w1", "w9"),
        "collides": lambda a, views, program: a.collides(9, "w1", "w2"),
        "module flip_cascade": lambda a, views, program: flip_cascade(
            views, program, 1, "w9", "w1"
        ),
    }

    @pytest.mark.parametrize("name", sorted(CALLS))
    def test_unknown_process_or_operation(self, corpus, name):
        parsed = corpus["write-race"]
        analysis = RaceAnalysis(parsed.views, parsed.program)
        with pytest.raises(ValueError, match=r"unknown (process 9|operation w9)") as raised:
            self.CALLS[name](analysis, parsed.views, parsed.program)
        assert type(raised.value) is ValueError


class TestMinimalRaceRecord:
    def test_write_race_record(self, corpus):
        parsed = corpus["write-race"]
        record = minimal_race_record(parsed.views, parsed.execution)
        assert record.edges(1) == {("w2", "w1")}
        assert record.edges(2) == frozenset()

    def test_race_agreement_record(self, corpus):
        parsed = corpus["race-agreement"]
        record = minimal_race_record(parsed.views, parsed.execution)
        assert record.edges(1) == frozenset()
        assert record.edges(2) == {("w2", "w1")}
        assert record.edges(3) == {("w1", "w2")}

    def test_single_process_records_nothing(self):
        program = Program.of(
            {1: [Operation("w", 1, "x", "a"), Operation("w", 1, "x", "b")]}
        )
        views = ViewSet.of([View(1, ("a", "b"))])
        record = minimal_race_record(views, Execution(program, {}))
        assert record.edges(1) == frozenset()

    def test_rejects_non_strongly_causal(self, corpus):
        parsed = corpus["naive-race-record"]
        with pytest.raises(NotStronglyCausal):
            minimal_race_record(parsed.views, parsed.execution)

    def test_record_edges_are_races(self, generated_corpus):
        for execution, views in generated_corpus:
            record = minimal_race_record(views, execution)
            for i, edge in record.all_edges():
                dro = data_race_order(views[i], execution.program)
                assert edge in dro.pairs


class TestNaiveCausalScheme:
    def test_four_process_red_edges(self, corpus):
        parsed = corpus["naive-race-record"]
        record = naive_causal_race_record(parsed.views, parsed.execution)
        assert record.edges(1) == {("w1y", "w3y"), ("w4a", "w2a")}
        assert record.edges(2) == {("w1y", "w3y"), ("w4a", "w2a"), ("r2x", "w3x")}
        assert record.edges(3) == {("w3x", "w1x"), ("w2z", "w4z")}
        assert record.edges(4) == {("w3x", "w1x"), ("w2z", "w4z"), ("r4y", "w1y")}

    def test_reduction_shape_of_first_view(self, corpus):
        # the closed race-and-order graph of process 1 reduces to its
        # program-order chains plus exactly three cross edges
        from causalrnr.model import write_read_write_order
        from causalrnr.relations import Relation, transitive_reduction, union_closed

        parsed = corpus["naive-race-record"]
        program = parsed.program
        universe = program.universe_of(1)
        closed = union_closed(
            data_race_order(parsed.views[1], program),
            write_read_write_order(parsed.execution),
            Relation(universe, program.po_restricted(universe)),
        )
        reduced = transitive_reduction(closed)
        po_chains = {e for e in reduced.pairs if e in program.po_pairs}
        cross = reduced.pairs - po_chains
        assert cross == {("w1y", "w3y"), ("w3y", "w4a"), ("w4a", "w2a")}
