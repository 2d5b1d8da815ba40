"""The oracle's pruned enumeration against an unpruned reference.

The reference walks the cartesian product of every process's
program-order-respecting permutations, in lexicographic order, and keeps
the view sets that certification as first defined accepts
(`conftest.reference_certifies`).  No ordering forced by one view
on another prunes anything, so the oracle must yield exactly the same
view sets in exactly the same order.

The oracle does not run `certifies` on the sets it yields: they certify
by construction.  `test_every_yielded_set_certifies` checks that on
fixtures larger than the reference can walk.
"""

import itertools

import pytest

from causalrnr import oracle
from causalrnr.consistency import CAUSAL, STRONG_CAUSAL
from causalrnr.generator import GenParams, gen_strong_causal
from causalrnr.model import View, ViewSet
from causalrnr.race_record import minimal_race_record
from causalrnr.records import Record
from causalrnr.view_record import minimal_view_record

from conftest import reference_certifies, small_generated

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
        if reference_certifies(candidate, program, record, model):
            yield candidate


@pytest.mark.parametrize("model", [STRONG_CAUSAL, CAUSAL])
@pytest.mark.parametrize("k", range(len(FIXTURES)))
def test_enumeration_matches_unpruned_reference(k, model):
    execution, views = FIXTURES[k]
    program = execution.program
    assert len(program.all_ops) <= 6
    records = {
        "empty": Record.of({p: frozenset() for p in program.processes}),
        "minimal view": minimal_view_record(views, execution),
        "minimal race": minimal_race_record(views, execution),
    }
    for name in ("minimal view", "minimal race"):
        record = records[name]
        if record.size():
            records[f"{name} minus one edge"] = record.drop(*next(record.all_edges()))
    for name, record in records.items():
        pruned = [c.sort_key() for c in oracle.enumerate_certifying(program, record, model)]
        unpruned = [c.sort_key() for c in reference_certifying(program, record, model)]
        assert pruned == unpruned, f"fixture {k}, {name} record"
        assert views.sort_key() in pruned


def test_corpus_has_dropped_edge_records():
    sizes = [
        (minimal_view_record(views, execution).size(),
         minimal_race_record(views, execution).size())
        for execution, views in FIXTURES
    ]
    assert sum(1 for view, _ in sizes if view) >= 10
    assert sum(1 for _, race in sizes if race) >= 10


# (processes, ops_per_process, variables, write_ratio, seed): 7-8
# operations, at most a few thousand certifying sets per model
LARGER = (
    (2, 4, 2, 0.5, 38),
    (2, 4, 2, 0.7, 37),
    (3, 3, 3, 0.5, 12),
    (3, 3, 3, 0.5, 30),
    (3, 3, 2, 0.4, 35),
)


@pytest.mark.parametrize("model", [STRONG_CAUSAL, CAUSAL])
@pytest.mark.parametrize("params", LARGER)
def test_every_yielded_set_certifies(params, model):
    *grid, seed = params
    execution, views = gen_strong_causal(GenParams(seed, *grid))
    program = execution.program
    assert 7 <= len(program.all_ops) <= 8
    empty = Record.of({p: frozenset() for p in program.processes})
    found = list(oracle.enumerate_certifying(program, empty, model))
    assert views.sort_key() in {c.sort_key() for c in found}
    for candidate in found:
        assert oracle.certifies(candidate, program, empty, model), candidate
