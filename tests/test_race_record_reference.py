"""The row-based race analysis against the Relation-based reference.

`ReferenceRaceAnalysis` is the analysis as it was written over id-pair
`Relation`s: every fixpoint, obligation graph and cascade re-closed
through `transitive_closure`.  The package's `RaceAnalysis` must agree
with it on every public result, for every process and every race pair,
and its per-edge record membership must agree with the reference's
whole record.  The necessity witness, which decides only its own edge's
membership, must equal the witness built from the whole record.

`RaceAnalysis` also accepts views that are not strongly causal, whose
obligation graphs may be cyclic.  On such perturbed sets every public
result must still equal the reference's, and `record` must raise
`CyclicInput` exactly where the reference does: when some obligation
graph has a cycle.
"""

import pytest

from causalrnr import oracle
from causalrnr.consistency import check_strong_causal
from causalrnr.errors import CyclicInput, InternalInvariant, PreconditionViolated
from causalrnr.model import WRITE, View, data_race_order
from causalrnr.race_record import FlipCascade, RaceAnalysis, WriteOrderLevels
from causalrnr.records import Record
from causalrnr.relations import (
    Relation,
    has_cycle,
    transitive_closure,
    transitive_reduction,
)

from conftest import disjoint_union, record_generated

GENERATED = record_generated()


def perturbed(execution, views):
    """The view sets that swap one adjacent pair on one variable in one
    view: the data-race order changes, and the set need not be strongly
    causal any more."""
    ops = execution.program.ops
    out = []
    for view in views.views:
        seq = view.sequence
        for k in range(len(seq) - 1):
            a, b = seq[k], seq[k + 1]
            if ops[a].variable == ops[b].variable:
                swapped = seq[:k] + (b, a) + seq[k + 2 :]
                out.append(views.replace(View(view.process, swapped)))
    return out


class ReferenceRaceAnalysis:
    def __init__(self, views, program):
        self.views = views
        self.program = program
        self._swo = None
        self._obligation = {}

    def dro(self, process):
        return data_race_order(self.views[process], self.program)

    def _base_pairs(self, process):
        return self.dro(process).pairs | self.program.process_index(process).po_pairs

    def strong_write_order(self):
        if self._swo is not None:
            return self._swo
        program = self.program
        writes = set(program.writes)
        forced, level = set(), {}
        k = 0
        while True:
            k += 1
            new = set()
            for view in self.views.views:
                i = view.process
                closed = transitive_closure(
                    Relation(program.universe_of(i), self._base_pairs(i) | forced)
                )
                for a, b in closed.pairs:
                    if (
                        a in writes
                        and b in writes
                        and program.proc_of(b) == i
                        and (a, b) not in forced
                    ):
                        new.add((a, b))
            if not new:
                break
            for e in sorted(new):
                level[e] = k
            forced |= new
        rel = Relation(program.writes, frozenset(forced))
        self._swo = WriteOrderLevels(rel, tuple(sorted(level.items())))
        return self._swo

    def swo_from_others(self, process):
        swo = self.strong_write_order().relation
        return frozenset(
            (a, b) for a, b in swo.pairs if self.program.proc_of(b) != process
        )

    def obligation(self, process):
        if process not in self._obligation:
            pairs = self._base_pairs(process) | self.swo_from_others(process)
            self._obligation[process] = transitive_closure(
                Relation(self.program.universe_of(process), pairs)
            )
        return self._obligation[process]

    def _reach(self, process):
        rel = self.obligation(process)
        out = {o: set() for o in rel.universe}
        for a, b in rel.pairs:
            out[a].add(b)
        return out

    def flip_cascade(self, i, first, second):
        program = self.program
        source = (first, second)
        if program.ops[second].kind != WRITE:
            return FlipCascade(i, source, ())
        writes = program.writes
        reach_i = self._reach(i)
        own = [w for w in writes if program.proc_of(w) == i]
        level1 = {
            (w3, w4)
            for w4 in own
            if first == w4 or w4 in reach_i[first]
            for w3 in writes
            if w3 != w4 and (w3 == second or second in reach_i[w3])
        }
        if not level1:
            return FlipCascade(i, source, (frozenset(),))
        levels = [frozenset(level1)]
        current = set(level1)
        while True:
            grown = set(current)
            for j in sorted(program.processes):
                mixed = transitive_closure(
                    Relation(
                        program.universe_of(j),
                        self.obligation(j).pairs | frozenset(current),
                    )
                )
                reach_j = self._reach(j)
                own_j = [w for w in writes if program.proc_of(w) == j]
                for w5, w6 in current:
                    sources = [
                        w3 for w3 in writes if w3 == w5 or (w3, w5) in mixed.pairs
                    ]
                    targets = [w4 for w4 in own_j if w6 == w4 or w4 in reach_j[w6]]
                    for w3 in sources:
                        for w4 in targets:
                            if w3 != w4:
                                grown.add((w3, w4))
            if grown == current:
                break
            levels.append(frozenset(grown))
            current = grown
        return FlipCascade(i, source, tuple(levels))

    def indirectly_enforced(self, i):
        program = self.program
        out = set()
        for o1, o2 in sorted(self.dro(i).pairs):
            if program.ops[o2].kind != WRITE:
                continue
            cascade = self.flip_cascade(i, o1, o2).union
            if not cascade:
                continue
            for m in sorted(program.processes):
                base = self.obligation(m).pairs
                if m == i:
                    base = base - {(o1, o2)}
                mixed = disjoint_union(
                    Relation(program.universe_of(m), base),
                    Relation(program.writes, cascade),
                )
                if has_cycle(mixed):
                    out.add((o1, o2))
                    break
        return frozenset(out)

    def record(self):
        program = self.program
        out = {}
        for view in self.views.views:
            i = view.process
            reduced = transitive_reduction(self.obligation(i))
            drop = (
                set(program.po_pairs)
                | self.swo_from_others(i)
                | self.indirectly_enforced(i)
            )
            kept = frozenset(e for e in reduced.pairs if e not in drop)
            if kept - self.dro(i).pairs:
                raise InternalInvariant(f"record for process {i} holds non-race edges")
            out[i] = kept
        return Record.of(out)


def bundled_fixtures(corpus):
    return [
        (name, c.execution, c.views)
        for name, c in sorted(corpus.items())
        if c.views and check_strong_causal(c.views, c.execution) is None
    ]


def assert_same_results(fast, slow, program):
    """Every public result short of the record: SWO levels, obligation
    graphs, foreign SWO, every cascade and the indirectly enforced races."""
    assert fast.strong_write_order() == slow.strong_write_order()
    for i in program.processes:
        assert fast.obligation(i) == slow.obligation(i)
        assert fast.swo_from_others(i) == slow.swo_from_others(i)
        for o1, o2 in sorted(slow.dro(i).pairs):
            assert fast.flip_cascade(i, o1, o2) == slow.flip_cascade(i, o1, o2)
        assert fast.indirectly_enforced(i) == slow.indirectly_enforced(i)


def assert_same_analysis(views, program):
    fast = RaceAnalysis(views, program)
    slow = ReferenceRaceAnalysis(views, program)
    assert_same_results(fast, slow, program)
    record = slow.record()
    assert fast.record() == record
    for i in program.processes:
        for pair in sorted(slow.dro(i).pairs):
            # a fresh analysis, so that the query builds only what it needs
            member = RaceAnalysis(views, program).in_record(i, pair)
            assert member == (pair in record.edges(i))


def assert_witnesses_match(views, execution):
    """For every race pair: the witness of a record edge equals the one
    built from the whole minimal record; any other pair is rejected."""
    program = execution.program
    analysis = RaceAnalysis(views, program)
    record = analysis.record()
    for i in program.processes:
        for pair in sorted(data_race_order(views[i], program).pairs):
            if pair in record.edges(i):
                expected = oracle.race_witness(analysis, i, pair)
                found = oracle.necessity_witness_race_record(views, execution, i, pair)
                assert found == expected
            else:
                with pytest.raises(PreconditionViolated):
                    oracle.necessity_witness_race_record(views, execution, i, pair)


def test_fixture_sizes_cover_the_record_workload():
    sizes = {len(execution.program.all_ops) for _, execution, _ in GENERATED}
    assert min(sizes) == 6 and {12, 13, 14} <= sizes


def test_bundled_fixtures_match_reference(corpus):
    cases = bundled_fixtures(corpus)
    assert cases
    for _, execution, views in cases:
        assert_same_analysis(views, execution.program)
        assert_witnesses_match(views, execution)


def test_membership_rejects_program_order_and_unknown_pairs():
    _, execution, views = GENERATED[0]
    program = execution.program
    analysis = RaceAnalysis(views, program)
    a, b = sorted(program.po_pairs)[0]
    process = program.proc_of(a)
    assert not analysis.in_record(process, (a, b))
    assert not analysis.in_record(process, (a, "missing"))
    assert not analysis.in_record(max(program.processes) + 1, (a, b))


def test_witness_fixtures_hold_both_outcomes():
    records = [
        RaceAnalysis(views, execution.program).record() for _, execution, views in GENERATED
    ]
    dro_pairs = sum(
        len(data_race_order(views[i], execution.program).pairs)
        for _, execution, views in GENERATED
        for i in execution.program.processes
    )
    edges = sum(record.size() for record in records)
    assert 0 < edges < dro_pairs


@pytest.mark.parametrize(
    "execution,views",
    [(execution, views) for _, execution, views in GENERATED],
    ids=[name for name, _, _ in GENERATED],
)
def test_generated_fixtures_match_reference(execution, views):
    assert_same_analysis(views, execution.program)
    assert_witnesses_match(views, execution)


@pytest.mark.parametrize(
    "execution,views",
    [(execution, views) for _, execution, views in GENERATED],
    ids=[name for name, _, _ in GENERATED],
)
def test_perturbed_views_match_reference(execution, views):
    program = execution.program
    for swapped in perturbed(execution, views):
        fast = RaceAnalysis(swapped, program)
        slow = ReferenceRaceAnalysis(swapped, program)
        assert_same_results(fast, slow, program)
        cyclic = any(has_cycle(slow.obligation(i)) for i in program.processes)
        if cyclic:
            with pytest.raises(CyclicInput):
                slow.record()
            with pytest.raises(CyclicInput):
                fast.record()
        else:
            assert fast.record() == slow.record()


def test_perturbed_views_hold_both_outcomes():
    outcomes = []
    for _, execution, views in GENERATED:
        program = execution.program
        for swapped in perturbed(execution, views):
            try:
                RaceAnalysis(swapped, program).record()
                outcomes.append(False)
            except CyclicInput:
                outcomes.append(True)
    assert any(outcomes) and not all(outcomes)
