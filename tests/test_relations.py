"""Relation toolkit: examples plus the order-theoretic invariants."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from causalrnr.errors import CyclicInput
from causalrnr.model import write_read_write_order
from causalrnr.relations import (
    Relation,
    has_cycle,
    restrict,
    transitive_closure,
    transitive_reduction,
    union_closed,
)

from conftest import disjoint_union

ABC = ("a", "b", "c")


def rel(universe, *pairs):
    return Relation.from_pairs(universe, pairs)


small_relations = st.builds(
    lambda pairs: Relation.from_pairs(
        "abcde", [(a, b) for a, b in pairs if a != b]
    ),
    st.lists(
        st.tuples(st.sampled_from("abcde"), st.sampled_from("abcde")), max_size=10
    ),
)


class TestClosure:
    def test_chain_of_two(self):
        r = rel(ABC, ("a", "b"), ("b", "c"))
        assert transitive_closure(r).pairs == {("a", "b"), ("b", "c"), ("a", "c")}

    def test_empty(self):
        assert transitive_closure(Relation.empty(ABC)).pairs == frozenset()

    def test_view_reduction_closes_back_to_full_order(self, corpus):
        # reduction edges of a total order close back to the full order
        view = corpus["separation"].views[2]
        full = Relation.total(view.sequence)
        reduced = rel(full.universe, *zip(view.sequence, view.sequence[1:]))
        assert transitive_closure(reduced) == full
        n = len(view.sequence)
        assert len(full.pairs) == n * (n - 1) // 2  # 7 elements -> 21 pairs

    @given(small_relations)
    @settings(max_examples=150, deadline=None)
    def test_idempotent(self, r):
        once = transitive_closure(r)
        assert transitive_closure(once) == once

    @given(small_relations, small_relations)
    @settings(max_examples=150, deadline=None)
    def test_monotone(self, a, b):
        merged = Relation.from_pairs("abcde", a.pairs | b.pairs)
        assert transitive_closure(a).pairs <= transitive_closure(merged).pairs


class TestReduction:
    def test_total_order_chain(self):
        total = Relation.total(ABC)
        assert transitive_reduction(total).pairs == {("a", "b"), ("b", "c")}

    def test_two_write_view(self):
        # a two-element view reduces to its single ordering pair
        v1 = Relation.total(("w1", "w2"))
        assert transitive_reduction(v1).pairs == {("w1", "w2")}

    def test_cycle_rejected(self):
        with pytest.raises(CyclicInput):
            transitive_reduction(rel(ABC, ("a", "b"), ("b", "a")))

    def test_random_partial_order_round_trip(self):
        rng = random.Random(5)
        items = "abcdef"
        for _ in range(100):
            pairs = {
                (items[i], items[j])
                for i in range(6)
                for j in range(i + 1, 6)
                if rng.random() < 0.4
            }
            p = transitive_closure(Relation.from_pairs(items, pairs))
            assert transitive_closure(transitive_reduction(p)) == p

    def test_unique_minimal_on_all_small_posets(self):
        # every poset on <= 5 elements, up to relabeling: edges only i < j
        items = tuple("abcde")
        slots = [
            (items[i], items[j]) for i in range(5) for j in range(i + 1, 5)
        ]
        seen = 0
        for mask in range(1 << len(slots)):
            pairs = frozenset(s for k, s in enumerate(slots) if (mask >> k) & 1)
            poset = Relation.from_pairs(items, pairs)
            if transitive_closure(poset) != poset:
                continue
            seen += 1
            reduced = transitive_reduction(poset)
            # exhaustive minimal-set search: the reduction is the unique
            # smallest subset whose closure restores the poset
            best = None
            ties = 0
            for r in range(len(pairs) + 1):
                found_at_r = []
                for subset in itertools.combinations(sorted(pairs), r):
                    candidate = Relation.from_pairs(items, subset)
                    if transitive_closure(candidate) == poset:
                        found_at_r.append(frozenset(subset))
                if found_at_r:
                    best = found_at_r
                    ties = len(found_at_r)
                    break
            assert ties == 1
            assert best[0] == reduced.pairs
        assert seen > 100  # the filter really enumerated posets


class TestUnions:
    def test_conflicting_orders_close_without_self_loops(self):
        a = rel("ab", ("a", "b"))
        b = rel("ab", ("b", "a"))
        u = union_closed(a, b)
        assert u.pairs == {("a", "b"), ("b", "a")}
        assert has_cycle(u)
        assert disjoint_union(a, b).pairs == {("a", "b"), ("b", "a")}

    def test_chain_closes(self):
        u = union_closed(rel(ABC, ("a", "b")), rel(ABC, ("b", "c")))
        assert u.pairs == {("a", "b"), ("b", "c"), ("a", "c")}

    def test_identity_for_disjoint_union(self):
        x = rel(ABC, ("a", "c"))
        assert disjoint_union(Relation.empty(ABC), x) == x

    def test_wo_with_po_reaches_across_processes(self, corpus):
        parsed = corpus["separation"]
        wo = write_read_write_order(parsed.execution)
        po = Relation(parsed.program.all_ops, parsed.program.po_pairs)
        merged = union_closed(wo, po)
        assert ("w2y", "r21x") in merged.pairs  # via the write-read-write edge

    @given(small_relations, small_relations)
    @settings(max_examples=150, deadline=None)
    def test_disjoint_subset_of_closed(self, a, b):
        assert disjoint_union(a, b).pairs <= union_closed(a, b).pairs

    @given(small_relations, small_relations)
    @settings(max_examples=150, deadline=None)
    def test_cycle_agreement(self, a, b):
        assert has_cycle(union_closed(a, b)) == has_cycle(disjoint_union(a, b))


class TestCycleAndRestrict:
    def test_two_cycle(self):
        assert has_cycle(rel(ABC, ("a", "b"), ("b", "a")))

    def test_chain_acyclic(self):
        assert not has_cycle(rel(ABC, ("a", "b"), ("b", "c")))

    def test_record_conflict_is_a_cycle(self, corpus):
        # a replay ordering both (w1, w2) and (w2, w1) violates some record
        a = rel(("w1", "w2"), ("w1", "w2"))
        b = rel(("w1", "w2"), ("w2", "w1"))
        assert has_cycle(disjoint_union(a, b))

    def test_restrict_po_to_writes(self, corpus):
        program = corpus["separation"].program
        kept = restrict(Relation(program.all_ops, program.po_pairs), program.writes)
        assert kept.pairs == {("w1x", "w1y"), ("w2x", "w2y")}

    def test_restrict_to_empty(self):
        assert restrict(rel(ABC, ("a", "b")), ()).pairs == frozenset()
        assert restrict(rel(ABC, ("a", "b")), ()).universe == ()

    def test_restrict_outside_universe_rejected(self):
        with pytest.raises(ValueError):
            restrict(rel(ABC, ("a", "b")), ("a", "z"))

    def test_dro_is_per_variable_restriction(self, corpus):
        from causalrnr.model import data_race_order

        parsed = corpus["separation"]
        view = parsed.views[1]
        program = parsed.program
        by_hand = set()
        for var in program.variables:
            ops_on_var = [o for o in view.sequence if program.var_of(o) == var]
            by_hand |= set(restrict(Relation.total(view.sequence), ops_on_var).pairs)
        assert data_race_order(view, program).pairs == frozenset(by_hand)
