"""The oracle's pruned enumeration against an unpruned reference.

The reference walks the cartesian product of every process's
program-order-respecting permutations, in lexicographic order, and keeps
the view sets `oracle.certifies` accepts.  No ordering forced by one view
on another prunes anything, so the oracle must yield exactly the same
view sets in exactly the same order.
"""

import itertools

import pytest

from causalrnr import oracle
from causalrnr.consistency import CAUSAL, STRONG_CAUSAL
from causalrnr.model import View, ViewSet
from causalrnr.records import Record
from causalrnr.view_record import minimal_view_record

from conftest import small_generated

FIXTURES = small_generated()


def _po_permutations(program, process):
    universe = program.universe_of(process)
    po = program.po_restricted(universe)
    for seq in itertools.permutations(universe):
        pos = {o: k for k, o in enumerate(seq)}
        if all(pos[a] < pos[b] for a, b in po):
            yield View(process, seq)


def reference_certifying(program, record, model):
    per_process = [list(_po_permutations(program, p)) for p in sorted(program.processes)]
    for views in itertools.product(*per_process):
        candidate = ViewSet.of(views)
        if oracle.certifies(candidate, program, record, model):
            yield candidate


@pytest.mark.parametrize("model", [STRONG_CAUSAL, CAUSAL])
@pytest.mark.parametrize("k", range(len(FIXTURES)))
def test_enumeration_matches_unpruned_reference(k, model):
    execution, views = FIXTURES[k]
    program = execution.program
    assert len(program.all_ops) <= 6
    records = {
        "empty": Record.of({p: frozenset() for p in program.processes}),
        "minimal": minimal_view_record(views, execution),
    }
    for name, record in records.items():
        pruned = [c.sort_key() for c in oracle.enumerate_certifying(program, record, model)]
        unpruned = [c.sort_key() for c in reference_certifying(program, record, model)]
        assert pruned == unpruned, f"fixture {k}, {name} record"
        assert views.sort_key() in pruned
