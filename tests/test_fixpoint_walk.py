"""The fixpoint walk (`consistency._walk`) with the reads given.

`find_explanation` takes the walk's first leaf over the saturated rows
of `explanation_base`, with read validity's rules, and `check_cache` its
first leaf per variable.  Every leaf, not only the first, must be a
solution, and every solution a leaf, in lexicographic order:

* with the reads given, the walk's leaves over every process (SCO
  lifted under the strong model) are the certifying replays of the
  empty record (`oracle.enumerate_certifying`) whose derived reads are
  the given ones, and the first is `find_explanation`'s result, which
  under the causal model walks each process alone;
* per variable, the leaves are the orders of the variable's operations
  that respect program order and in which every read returns its
  source, listed by brute force.

Read validity's rules are not complete, so the walk may reach an acyclic
state with no completion and must backtrack out of it; the last test
pins such a state.
"""

import itertools
import random

import pytest

from causalrnr import consistency, kernels
from causalrnr.consistency import (
    CAUSAL,
    STRONG_CAUSAL,
    check_cache,
    close_reads,
    cyclic,
    find_explanation,
    read_validity,
)
from causalrnr.model import Operation, Program, derive_writes_to
from causalrnr.oracle import enumerate_certifying
from causalrnr.records import Record
from causalrnr.search import NodeBudget

from conftest import resourced, small_generated

MODELS = (STRONG_CAUSAL, CAUSAL)


def _executions():
    """`small_generated()` and up to three re-sourced copies of each."""
    out = []
    for k, (execution, _) in enumerate(small_generated()):
        out.append(execution)
        rng = random.Random(k)
        for _ in range(3):
            copy = resourced(execution, rng)
            if copy is not None:
                out.append(copy)
    return out


EXECUTIONS = _executions()


def walk_leaves(execution, model):
    """Every leaf of the walk over the saturated bases, every process a
    group, as view sets."""
    program = execution.program
    base, rules = consistency._explanation_rows(execution, model)
    if base is None:
        return []
    groups = [(i, program.process_index(i).universe_mask) for i in sorted(base)]
    walk = consistency._walk(
        program, base, groups, NodeBudget(None), rules=rules, lift=model == STRONG_CAUSAL
    )
    return [consistency._views(program, placed) for placed in walk]


def explanations(execution, model):
    """The certifying replays of the empty record whose views derive the
    execution's reads."""
    program = execution.program
    empty = Record.of({p: frozenset() for p in program.processes})
    return [
        replay
        for replay in enumerate_certifying(program, empty, model)
        if derive_writes_to(replay, program).writes_to == execution.writes_to
    ]


@pytest.mark.parametrize("model", MODELS)
def test_every_leaf_is_an_explanation_and_every_explanation_a_leaf(model):
    counts = []
    for execution in EXECUTIONS:
        leaves = walk_leaves(execution, model)
        assert leaves == explanations(execution, model), execution
        assert find_explanation(execution, model) == (leaves[0] if leaves else None)
        counts.append(len(leaves))
    assert 0 in counts and max(counts) > 1


def cache_leaves(execution, x):
    """Every leaf of `check_cache`'s walk over the variable x, as id
    sequences."""
    program = execution.program
    ids = program.all_ops
    positions = [k for k, o in enumerate(ids) if program.var_of(o) == x]
    mask = sum(1 << k for k in positions)
    reads = [k for k in positions if not program.is_write(ids[k])]
    rows, rules = read_validity(program, execution.writes_to, reads)
    po = [p & mask if mask >> k & 1 else 0 for k, p in enumerate(program.po_rows)]
    closed = kernels.closure_rows([p | r for p, r in zip(po, rows)])
    saturated = None if cyclic(closed) else close_reads(closed, rules)
    if saturated is None:
        return []
    walk = consistency._walk(
        program, {x: saturated}, [(x, mask)], NodeBudget(None), rules={x: rules}, lift=False
    )
    return [tuple(ids[k] for k in placed) for placed in walk]


def coherent_orders(execution, x):
    """Every order of the operations on x that respects program order and
    in which each read returns its source, by brute force."""
    program = execution.program
    ops = [o for o in program.all_ops if program.var_of(o) == x]
    out = []
    for order in itertools.permutations(ops):
        pos = {o: k for k, o in enumerate(order)}
        if any(pos[a] > pos[b] for a, b in program.po_restricted(ops)):
            continue
        last = None
        for o in order:
            if program.is_write(o):
                last = o
            elif execution.writes_to.get(o) != last:
                break
        else:
            out.append(order)
    return out


def test_every_cache_leaf_is_a_coherent_order_and_every_coherent_order_a_leaf():
    counts = []
    for execution in EXECUTIONS:
        for x in execution.program.variables:
            leaves = cache_leaves(execution, x)
            assert leaves == coherent_orders(execution, x), (execution, x)
            counts.append(len(leaves))
        assert (check_cache(execution) is None) == all(
            coherent_orders(execution, x) for x in execution.program.variables
        )
    assert 0 in counts and max(counts) > 1


def test_the_walk_backtracks_out_of_an_acyclic_state_with_no_completion():
    """A hand-built instance on which the rules derive nothing, yet no
    total order satisfies them.  Three variables each hold a read ri of
    the write si and a competing write wi, so every order puts wi before
    si (Bi) or after ri (Ai).  The extra edges chain the choices through
    transitivity: B1 puts s2 before w2, which forces A2, and so on along
    B1 => A2 => B3 => A1 and A1 => B2 => A3 => B1, so neither choice of
    triple 1 survives.  No edge orders a triple's own si before wi or wi
    before ri, so no rule fires on the base.  The free write a places
    first, and its state is acyclic with no completion: every next
    candidate s1, s2, s3 decides a choice whose fixpoint is cyclic, and
    the walk backtracks out of it.  An exhaustive search of small
    executions showed no such state, so the instance is built by hand."""
    ops = [("w", "u", "a")] + [
        (kind, var, f"{name}{i}")
        for i, var in ((1, "x"), (2, "y"), (3, "z"))
        for kind, name in (("w", "s"), ("r", "r"), ("w", "w"))
    ]
    program = Program.of({p: [Operation(k, p, v, o)] for p, (k, v, o) in enumerate(ops, 1)})
    index = program.index
    writes_to = {"r1": "s1", "r2": "s2", "r3": "s3"}
    rows, rules = read_validity(program, writes_to, [index[r] for r in writes_to])
    edges = (
        "s2 w1, s1 w2, w3 r2, w2 r3, s1 w3, s3 w1, "
        "w2 r1, w1 r2, s3 w2, s2 w3, w1 r3, w3 r1"
    )
    for pair in edges.split(", "):
        a, b = pair.split()
        rows[index[a]] |= 1 << index[b]
    closed = kernels.closure_rows(rows)
    assert not cyclic(closed) and close_reads(closed, rules) == closed
    # each of the eight ways to place every wi closes a cycle
    for choice in itertools.product((True, False), repeat=3):
        chosen = list(closed)
        for i, before in enumerate(choice, 1):
            s, r, w = (index[f"{name}{i}"] for name in "srw")
            if before:
                chosen[w] |= 1 << s
            else:
                chosen[r] |= 1 << w
        assert cyclic(kernels.closure_rows(chosen)), choice
    budget = NodeBudget(None)
    group = [(0, (1 << len(ops)) - 1)]
    walk = consistency._walk(program, {0: closed}, group, budget, rules={0: rules}, lift=False)
    assert list(walk) == []
    # one placement, the free write, then the backtrack
    assert budget.explored == 1
