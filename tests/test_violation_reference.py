"""The row-based consistency checks against the Relation-based reference.

`reference_check_against` is the checker written over `Relation` values:
it closes the base order with each view's program order and reports the
first violated pair in sorted order.  The row-based `check_causal` and
`check_strong_causal` must return the same `Violation`, field for field,
on consistent view sets, on copies with one adjacent pair swapped in
one view, which produce read-validity, order and cyclic-requirement
violations, and on copies that list one view's reads out of program
order: the view reversed, or two adjacent pairs swapped in it.  A single
swap changes the writes before at most one read, so only these copies
hold views with two invalid reads, where the checks must report the
first in view order.
"""

from collections import Counter

from causalrnr.consistency import check_causal, check_strong_causal
from causalrnr.model import (
    View,
    Violation,
    check_universe,
    derive_writes_to,
    read_sources,
    validate_view,
)
from causalrnr.relations import Relation, has_cycle, union_closed

from conftest import small_generated


def reference_sco(views, program):
    writes = program.writes
    pairs = set()
    for view in views.views:
        pos = view.positions
        own_writes = [o for o in program.own(view.process) if program.is_write(o)]
        for b in own_writes:
            for a in writes:
                if a != b and pos[a] < pos[b]:
                    pairs.add((a, b))
    return Relation(writes, frozenset(pairs))


def reference_wo(execution):
    program = execution.program
    pairs = set()
    for read, w1 in execution.writes_to.items():
        own = program.own(program.proc_of(read))
        for o in own[own.index(read) + 1 :]:
            if program.is_write(o) and w1 != o:
                pairs.add((w1, o))
    return Relation(program.writes, frozenset(pairs))


def _required(program, process, base):
    universe = program.universe_of(process)
    return union_closed(base, Relation(universe, program.po_restricted(universe)))


def reference_check_against(views, execution, base):
    program = execution.program
    for view in views.views:
        check_universe(view, program)
    for view in views.views:
        bad = validate_view(view, execution)
        if bad is not None:
            return bad
    for view in views.views:
        pos = view.positions
        for a, b in _required(program, view.process, base).sorted_pairs:
            if pos[a] > pos[b]:
                return Violation(
                    kind="order",
                    process=view.process,
                    edge=(a, b),
                    message=(
                        f"view of process {view.process} must order {a} before {b} "
                        f"but orders them the other way"
                    ),
                )
    return None


def _swapped(views):
    for view in views.views:
        seq = view.sequence
        for j in range(len(seq) - 1):
            flipped = seq[:j] + (seq[j + 1], seq[j]) + seq[j + 2 :]
            yield views.replace(View(view.process, flipped))


def _reordered(views):
    """Each view reversed, and each view with two disjoint adjacent pairs
    swapped."""
    for view in views.views:
        seq = view.sequence
        yield views.replace(View(view.process, seq[::-1]))
        for j in range(len(seq) - 1):
            for k in range(j + 2, len(seq) - 1):
                flipped = list(seq)
                flipped[j], flipped[j + 1] = seq[j + 1], seq[j]
                flipped[k], flipped[k + 1] = seq[k + 1], seq[k]
                yield views.replace(View(view.process, tuple(flipped)))


def _cases():
    for execution, views in small_generated(count=60, max_total_ops=8):
        yield execution, views
        for candidate in _swapped(views):
            yield execution, candidate
            yield derive_writes_to(candidate, execution.program), candidate
        for candidate in _reordered(views):
            yield execution, candidate


def _invalid_reads(views, execution):
    """Per view, the reads it makes return another write than the
    execution's, in view order."""
    program = execution.program
    return [
        [r for r, s in read_sources(view, program) if execution.writes_to.get(r) != s]
        for view in views.views
    ]


def test_row_checks_match_relation_reference(corpus):
    fixtures = [(p.execution, p.views) for p in corpus.values() if p.views is not None]
    fixtures += [(e, c) for e, views in fixtures for c in _reordered(views)]
    cases = list(_cases()) + fixtures
    seen = Counter()
    for execution, views in cases:
        program = execution.program
        checks = (
            (check_causal, reference_wo(execution)),
            (check_strong_causal, reference_sco(views, program)),
        )
        for check, base in checks:
            expected = reference_check_against(views, execution, base)
            assert check(views, execution) == expected
            invalid = next((reads for reads in _invalid_reads(views, execution) if reads), [])
            if len(invalid) > 1:
                seen["two invalid reads"] += 1
                # the first in view order is not the least id
                seen["out of id order"] += invalid[0] != min(invalid)
            if expected is None:
                seen["none"] += 1
            elif expected.kind == "order":
                cyclic = has_cycle(_required(program, expected.process, base))
                seen["cyclic" if cyclic else "order"] += 1
            else:
                seen[expected.kind] += 1
    assert set(seen) == {
        "none", "read-validity", "order", "cyclic", "two invalid reads", "out of id order"
    }, seen
    assert seen["out of id order"], seen
