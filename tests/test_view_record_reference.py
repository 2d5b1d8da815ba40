"""The row-based view records against the pair-based reference.

`reference_sco_from_others`, `reference_indirectly_enforced` and
`reference_minimal_view_record` are the offline view record as it was
written over id pairs: one `strong_causal_order` per process, and a
Python loop over (own write, foreign write, third process) triples.  The
package's versions, which share one rows helper, must agree with them
on every process of the bundled fixtures and of generated fixtures of
6-14 operations (the `record` benchmark's templates among them), and
the view necessity witness must be the reference record's swap for
every record edge and be refused for every other pair.
"""

import pytest

from causalrnr import oracle
from causalrnr.consistency import STRONG_CAUSAL, check_strong_causal, strong_causal_order
from causalrnr.errors import NotStronglyCausal, PreconditionViolated
from causalrnr.model import View
from causalrnr.records import Record
from causalrnr.relations import Relation
from causalrnr.view_record import indirectly_enforced, minimal_view_record, sco_from_others

from conftest import record_generated

GENERATED = record_generated()


def reference_sco_from_others(views, program, process):
    sco = strong_causal_order(views, program)
    pairs = frozenset((a, b) for a, b in sco.pairs if program.proc_of(b) != process)
    return Relation(sco.universe, pairs)


def reference_indirectly_enforced(views, program, process):
    i = process
    view = views[i]
    pairs = set()
    own_writes = [w for w in program.writes if program.proc_of(w) == i]
    for w1 in own_writes:
        for w2 in program.writes:
            j = program.proc_of(w2)
            if j == i or not view.orders(w1, w2):
                continue
            for k in views.processes():
                if k in (i, j):
                    continue
                if views[k].orders(w1, w2):
                    pairs.add((w1, w2))
                    break
    return Relation(program.writes, frozenset(pairs))


def reference_minimal_view_record(views, execution):
    bad = check_strong_causal(views, execution)
    if bad is not None:
        raise NotStronglyCausal(str(bad))
    program = execution.program
    out = {}
    for view in views.views:
        i = view.process
        drop = (
            set(program.po_pairs)
            | set(reference_sco_from_others(views, program, i).pairs)
            | set(reference_indirectly_enforced(views, program, i).pairs)
        )
        out[i] = frozenset(e for e in view.reduction_pairs() if e not in drop)
    return Record.of(out)


def reference_view_witness(views, execution, record, process, edge):
    a, b = edge
    seq = list(views[process].sequence)
    k = seq.index(a)
    assert seq[k + 1] == b
    seq[k], seq[k + 1] = b, a
    witness = views.replace(View(process, tuple(seq)))
    assert oracle.certifies(
        witness, execution.program, record.drop(process, edge), STRONG_CAUSAL
    )
    return witness


def cases(corpus):
    out = [(name, c.execution, c.views) for name, c in sorted(corpus.items()) if c.views]
    return out + GENERATED


def test_cases_cover_the_record_workload(corpus):
    sizes = {len(execution.program.all_ops) for _, execution, _ in GENERATED}
    assert min(sizes) == 6 and {12, 13, 14} <= sizes
    names = {name.split("-")[0] for name, _, _ in GENERATED}
    assert {"p4x4v2", "p5x3v2", "p6x3v3"} <= names
    # some bundled view sets are not strongly causal
    assert any(
        check_strong_causal(views, execution) is not None
        for _, execution, views in cases(corpus)
    )


def test_helpers_match_reference(corpus):
    seen = {"sco": False, "indirect": False}
    for _, execution, views in cases(corpus):
        program = execution.program
        for i in views.processes():
            sco = reference_sco_from_others(views, program, i)
            indirect = reference_indirectly_enforced(views, program, i)
            assert sco_from_others(views, program, i) == sco
            assert indirectly_enforced(views, program, i) == indirect
            seen["sco"] |= bool(sco.pairs)
            seen["indirect"] |= bool(indirect.pairs)
    assert all(seen.values())


def test_records_match_reference(corpus):
    rejected = 0
    for _, execution, views in cases(corpus):
        try:
            expected = reference_minimal_view_record(views, execution)
        except NotStronglyCausal as exc:
            with pytest.raises(NotStronglyCausal) as caught:
                minimal_view_record(views, execution)
            assert str(caught.value) == str(exc)
            rejected += 1
            continue
        assert minimal_view_record(views, execution) == expected
    assert rejected


def test_witnesses_match_reference(corpus):
    edges = refused = 0
    for _, execution, views in cases(corpus):
        if check_strong_causal(views, execution) is not None:
            continue
        record = reference_minimal_view_record(views, execution)
        for i in views.processes():
            pairs = set(views[i].reduction_pairs())
            seq = views[i].sequence
            pairs |= set(zip(seq, seq[2:]))  # not consecutive
            for edge in sorted(pairs):
                if edge in record.edges(i):
                    expected = reference_view_witness(views, execution, record, i, edge)
                    found = oracle.necessity_witness_view_record(views, execution, i, edge)
                    assert found == expected
                    edges += 1
                else:
                    with pytest.raises(PreconditionViolated):
                        oracle.necessity_witness_view_record(views, execution, i, edge)
                    refused += 1
    assert edges > 100 and refused > 100
