"""The race analysis's candidate records against a plain two-pass
construction.

`RaceAnalysis.candidate_rows` reduces a process's closed obligation rows
with `kernels.reduction_rows`, which skips a successor already in the
cover, then drops program order and foreign strong write order.  The
reference reduces with the plain cover of every successor's row, then
drops the same edges: two passes over the rows.  Both must agree on the
bundled fixtures, the generated ones and the perturbed view sets, which
need not be strongly causal.  Where an obligation graph is cyclic, the
candidate rows must raise the `CyclicInput` that `transitive_reduction`
raises.  Property tests run the reduction and the masking on random
closed rows.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from causalrnr import kernels
from causalrnr.errors import CyclicInput, InternalInvariant
from causalrnr.race_record import RaceAnalysis
from causalrnr.relations import transitive_reduction

from conftest import record_generated, small_generated
from test_race_record_reference import bundled_fixtures, perturbed

GENERATED = [(execution, views) for _, execution, views in record_generated()]


def plain_reduction(closed):
    """Each row minus the union of its successors' rows."""
    out = []
    for row in closed:
        cover = 0
        for j in range(len(closed)):
            if row >> j & 1:
                cover |= closed[j]
        out.append(row & ~cover)
    return out


def reference_pass(closed, po, swo, own):
    """Reduce with the plain cover, then drop program order and foreign
    strong write order: two passes over the rows."""
    return [r & ~p & ~(s & ~own) for r, p, s in zip(plain_reduction(closed), po, swo)]


def analysis_pass(closed, po, swo, own):
    """The analysis's construction on bare rows: the kernel's reduction,
    masked as `candidate_rows` masks it."""
    return [r & ~p & ~(s & ~own) for r, p, s in zip(kernels.reduction_rows(closed), po, swo)]


def reference_rows(analysis, process):
    index = analysis.program.process_index(process)
    return reference_pass(
        analysis.obligation_rows(process),
        index.po_rows,
        analysis.swo_rows(),
        index.own_writes_mask,
    )


def check_process(views, program, process):
    """Compares the candidate rows with the reference; returns whether
    the obligation graph is cyclic."""
    try:
        transitive_reduction(RaceAnalysis(views, program).obligation(process))
    except CyclicInput as error:
        with pytest.raises(CyclicInput) as raised:
            RaceAnalysis(views, program).candidate_rows(process)
        assert str(raised.value) == str(error)
        return True
    analysis = RaceAnalysis(views, program)
    assert analysis.candidate_rows(process) == reference_rows(analysis, process)
    return False


def check_sets(cases):
    """Checks every process of every set; returns the number of cyclic
    and of acyclic obligation graphs."""
    outcomes = [
        check_process(views, execution.program, i)
        for execution, views in cases
        for i in execution.program.processes
    ]
    return sum(outcomes), len(outcomes) - sum(outcomes)


def test_bundled_fixtures_match_two_passes(corpus):
    cases = [(execution, views) for _, execution, views in bundled_fixtures(corpus)]
    assert cases
    assert check_sets(cases)[0] == 0


def test_small_generated_match_two_passes():
    assert check_sets(small_generated())[0] == 0


def test_record_generated_match_two_passes():
    assert check_sets(GENERATED)[0] == 0


@pytest.mark.parametrize("k", range(len(GENERATED)))
def test_perturbed_sets_match_two_passes(k):
    execution, views = GENERATED[k]
    check_sets([(execution, swapped) for swapped in perturbed(execution, views)])


def test_perturbed_sets_hold_both_outcomes():
    cases = [
        (execution, swapped)
        for execution, views in GENERATED
        for swapped in perturbed(execution, views)
    ]
    cyclic, acyclic = check_sets(cases)
    assert cyclic and acyclic


def test_stray_edges_keep_their_message():
    """A candidate edge outside the data-race order raises
    `InternalInvariant`, naming the stray pairs."""
    execution, views = GENERATED[0]
    program = execution.program
    for i in program.processes:
        analysis = RaceAnalysis(views, program)
        candidate = reference_rows(analysis, i)
        if any(candidate):
            break
    a = next(k for k, row in enumerate(candidate) if row)
    b = (candidate[a] & -candidate[a]).bit_length() - 1
    # the fixpoint is solved, so only the stray test sees the cleared bit
    analysis.dro_rows(i)[a] &= ~(1 << b)
    ids = program.all_ops
    message = f"record for process {i} holds non-race edges {[(ids[a], ids[b])]}"
    with pytest.raises(InternalInvariant) as raised:
        analysis.candidate_rows(i)
    assert str(raised.value) == message


# -- the reduction and the masking on random closed rows ----------------------


def sub_order(rng, closed):
    """The closure of a random subset of the edges of closed rows: closed
    rows inside them, as program order is inside the obligation graph."""
    n = len(closed)
    return kernels.closure_rows(
        [sum(1 << j for j in range(n) if row >> j & 1 and rng.random() < 0.3) for row in closed]
    )


def random_rows(rng, n, density):
    """Closed acyclic rows on n positions, each edge of a random
    topological order present with probability `density` before closing,
    with program-order rows inside them, strong write order rows and an
    own-writes mask."""
    order = list(range(n))
    rng.shuffle(order)
    rows = [0] * n
    for x, a in enumerate(order):
        for b in order[x + 1 :]:
            if rng.random() < density:
                rows[a] |= 1 << b
    closed = kernels.closure_rows(rows)
    swo = [rng.getrandbits(n) if n else 0 for _ in range(n)]
    return closed, sub_order(rng, closed), swo, rng.getrandbits(n) if n else 0


def check_pass(closed, po, swo, own):
    assert analysis_pass(closed, po, swo, own) == reference_pass(closed, po, swo, own)


@given(st.integers(0, 20), st.sampled_from([0.0, 0.1, 0.3, 0.6, 1.0]), st.integers(0, 2**32))
@settings(max_examples=200, deadline=None)
def test_pass_matches_two_passes_on_random_rows(n, density, seed):
    check_pass(*random_rows(random.Random(seed), n, density))


SHAPES = {
    # every row empty: nothing to reduce or close
    "empty rows": lambda n: [0] * n,
    # k before every j > k: each row reduces to its next position
    "chain": lambda n: [(1 << n) - (1 << k + 1) for k in range(n)],
    # position 0 above an antichain: its row reduces to the whole antichain
    "antichain": lambda n: [(1 << n) - 2 if k == 0 else 0 for k in range(n)],
}
EXPECTED = {
    "empty rows": lambda n: [0] * n,
    "chain": lambda n: [1 << k + 1 if k + 1 < n else 0 for k in range(n)],
    "antichain": lambda n: [(1 << n) - 2 if k == 0 else 0 for k in range(n)],
}


@given(st.integers(1, 12), st.integers(0, 2**32))
@settings(max_examples=100, deadline=None)
def test_reduction_skip_matches_plain_cover_on_cyclic_rows(n, seed):
    """Skipping a covered successor needs only transitivity: on closed
    rows with cycles the kernel still equals the plain cover."""
    rng = random.Random(seed)
    closed = kernels.closure_rows([rng.getrandbits(n) & rng.getrandbits(n) for _ in range(n)])
    assert kernels.reduction_rows(closed) == plain_reduction(closed)


@pytest.mark.parametrize("n", [0, 1, 2, 7, 20])
@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_pass_on_empty_rows_chains_and_antichains(shape, n):
    closed = SHAPES[shape](n)
    assert kernels.reduction_rows(closed) == EXPECTED[shape](n)
    assert kernels.closure_rows(EXPECTED[shape](n)) == closed
    rng = random.Random(n)
    for _ in range(10):
        swo = [rng.getrandbits(n) if n else 0 for _ in range(n)]
        check_pass(closed, sub_order(rng, closed), swo, rng.getrandbits(n) if n else 0)
