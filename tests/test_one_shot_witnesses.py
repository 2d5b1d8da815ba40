"""The one-shot necessity witnesses against the shared-state witnesses.

`necessity_witness_view_record` decides its edge from the owner's
required edges and tests the swap on rows derived from the views' kept
order rows (`ViewSet.order_rows`), and `necessity_witness_race_record`
builds its `RaceAnalysis` behind the strong causality check.  On the bundled fixtures and the
generated ones, each must return what `view_witness` on the minimal view
record, or `race_witness` on a fresh `RaceAnalysis`, returns for the same
edge, or raise the same exception with the same message; and every
witness of a record edge must certify that record without the edge, for
every process.  Views that are not strongly causal still raise
`NotStronglyCausal` with the checker's violation.
"""

import pytest

from causalrnr import fixtures, oracle
from causalrnr.consistency import STRONG_CAUSAL, check_strong_causal, strongly_causal_rows
from causalrnr.errors import InternalInvariant, NotStronglyCausal
from causalrnr.model import View, data_race_rows, order_rows
from causalrnr.race_record import RaceAnalysis, minimal_race_record
from causalrnr.view_record import minimal_view_record

from conftest import record_generated, small_generated


def _cases():
    out = {}
    for name in fixtures.names():
        parsed = fixtures.load(name)
        out[name] = (parsed.execution, parsed.views)
    for k, (execution, views) in enumerate(small_generated()):
        out[f"small-{k}"] = (execution, views)
    for name, execution, views in record_generated():
        out[name] = (execution, views)
    return out


CASES = _cases()
STRONG = sorted(n for n, (e, v) in CASES.items() if check_strong_causal(v, e) is None)
NOT_STRONG = sorted(set(CASES) - set(STRONG))


def outcome(call):
    """What a call returns, or the type and message of what it raises."""
    try:
        return call()
    except Exception as error:
        return type(error), str(error)


@pytest.mark.parametrize("name", STRONG)
def test_view_one_shot_matches_view_witness(name):
    execution, views = CASES[name]
    program = execution.program
    minimal = minimal_view_record(views, execution)
    witnessed = 0
    for view in views.views:
        p = view.process
        for edge in view.reduction_pairs():
            found = outcome(lambda: oracle.necessity_witness_view_record(views, execution, p, edge))
            expected = outcome(lambda: oracle.view_witness(views, execution, minimal, p, edge))
            assert found == expected, (p, edge)
            if edge in minimal.edges(p):
                assert oracle.certifies(found, program, minimal.drop(p, edge), STRONG_CAUSAL)
                assert found != views
                witnessed += 1
    assert witnessed == minimal.size()


@pytest.mark.parametrize("name", STRONG)
def test_race_one_shot_matches_race_witness(name):
    execution, views = CASES[name]
    program = execution.program
    minimal = minimal_race_record(views, execution)
    assert check_strong_causal(views, execution) is None
    analysis = RaceAnalysis(views, program)
    checked = RaceAnalysis._checked(views, execution)
    for view in views.views:
        assert checked.dro_rows(view.process) == data_race_rows(view, program)
    witnessed = 0
    for view in views.views:
        p = view.process
        for edge in sorted(program.pairs_of(data_race_rows(view, program))):
            found = outcome(lambda: oracle.necessity_witness_race_record(views, execution, p, edge))
            expected = outcome(lambda: oracle.race_witness(analysis, p, edge))
            assert found == expected, (p, edge)
            if edge in minimal.edges(p):
                assert oracle.certifies(found, program, minimal.drop(p, edge), STRONG_CAUSAL)
                witnessed += 1
    assert witnessed == minimal.size()


@pytest.mark.parametrize("name", STRONG)
def test_swap_rows_are_the_built_rows(name):
    """`_swap` derives the swapped view's rows from the original's and
    tests the swap on them: the rows must be those `order_rows` builds,
    and the test must agree with `strongly_causal_rows` on the swapped
    views, for every consecutive pair, record edge or not.  The
    originals' kept rows stay those `order_rows` builds."""
    execution, views = CASES[name]
    program = execution.program
    rows = tuple(order_rows(v, program) for v in views.views)
    for view in views.views:
        p = view.process
        for a, b in view.reduction_pairs():
            seq = list(view.sequence)
            k = seq.index(a)
            seq[k], seq[k + 1] = b, a
            swapped = views.replace(View(p, tuple(seq)))
            holds = strongly_causal_rows(swapped, program)[1]
            try:
                witness, orders = oracle._swap(views, program, p, (a, b))
            except InternalInvariant:
                assert not holds, (p, (a, b))
                continue
            assert holds, (p, (a, b))
            assert witness == swapped
            assert orders == {v.process: order_rows(v, program) for v in swapped.views}
    assert views.order_rows(program) == rows


def _broken(execution, views):
    """View sets that the strong causality check rejects: the given ones
    when they are not strongly causal, and every swap of two consecutive
    operations of one view that breaks them."""
    if check_strong_causal(views, execution) is not None:
        yield views
        return
    for view in views.views:
        for k in range(len(view.sequence) - 1):
            seq = list(view.sequence)
            seq[k], seq[k + 1] = seq[k + 1], seq[k]
            swapped = views.replace(View(view.process, tuple(seq)))
            if check_strong_causal(swapped, execution) is not None:
                yield swapped


@pytest.mark.parametrize("name", sorted(CASES))
def test_views_that_are_not_strongly_causal_are_rejected(name):
    execution, views = CASES[name]
    edges = [(v.process, edge) for v in views.views for edge in v.reduction_pairs()][:4]
    rejected = 0
    for broken in _broken(execution, views):
        message = str(check_strong_causal(broken, execution))
        for witness in (oracle.necessity_witness_view_record, oracle.necessity_witness_race_record):
            for p, edge in edges:
                with pytest.raises(NotStronglyCausal) as raised:
                    witness(broken, execution, p, edge)
                assert str(raised.value) == message
        rejected += 1
    if name in NOT_STRONG:
        assert rejected == 1
