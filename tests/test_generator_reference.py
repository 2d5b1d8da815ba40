"""The simulation loop against its first formulation.

`generator.simulate` keeps, per process, the deliverable writes sorted by
id and, per (process, write), the count of the write's observed writes
not yet applied there.  `reference_simulate` is the loop as first
written: every step rescans every executed write at every process,
tests its observed set for inclusion, and sorts the move list.  Both must
give the same events, views and writes-to relation on every parameter
set, so that the generated executions stay byte-identical.
"""

import random

import pytest

from causalrnr.generator import GenParams, SimTrace, _draw_program, simulate
from causalrnr.model import View, ViewSet, derive_writes_to


def reference_simulate(params: GenParams) -> SimTrace:
    rng = random.Random(params.seed)
    program = _draw_program(rng, params)
    procs = sorted(program.processes)

    next_op = {p: 0 for p in procs}
    view: dict[int, list[str]] = {p: [] for p in procs}
    applied: dict[int, set[str]] = {p: set() for p in procs}
    # each executed write with its process and the writes it observed
    observed_before: dict[str, tuple[int, frozenset[str]]] = {}
    events: list[tuple] = []

    while True:
        moves: list[tuple] = []
        for p in procs:
            own = program.own(p)
            for w, (src, before) in observed_before.items():
                if src != p and w not in applied[p] and before <= applied[p]:
                    moves.append(("deliver", p, w))
            if next_op[p] < len(own):
                moves.append(("exec", p, own[next_op[p]]))
        if not moves:
            break
        moves.sort()
        move = moves[rng.randrange(len(moves))]
        events.append(move)
        if move[0] == "exec":
            _, p, o = move
            next_op[p] += 1
            if program.is_write(o):
                observed_before[o] = (
                    p, frozenset(q for q in view[p] if program.is_write(q))
                )
                applied[p].add(o)
            view[p].append(o)
        else:
            _, p, w = move
            applied[p].add(w)
            view[p].append(w)

    views = ViewSet.of([View(p, tuple(view[p])) for p in procs])
    return SimTrace(derive_writes_to(views, program), views, tuple(events))


def grid():
    """1-6 processes, 0-6 operations each, 1-3 variables, write ratios 0,
    0.5, 0.6 and 1, two seeds each; then a few seeds at 10 x 10 and
    16 x 16."""
    out = []
    for processes in range(1, 7):
        for ops in range(7):
            for variables in (1, 2, 3):
                for ratio in (0.0, 0.5, 0.6, 1.0):
                    for seed in (len(out), len(out) + 1000):
                        out.append(GenParams(seed, processes, ops, variables, ratio))
    out += [GenParams(seed, 10, 10, 3, 0.6) for seed in range(4)]
    out += [GenParams(seed, 16, 16, 4, 0.5) for seed in range(2)]
    return out


GRID = grid()


def test_grid_covers_program_shapes():
    empty_process = write_only = read_only = False
    for params in GRID:
        program = simulate(params).execution.program
        ops = program.all_ops
        empty_process |= any(not program.own(p) for p in program.processes)
        write_only |= bool(ops) and len(program.writes) == len(ops)
        read_only |= bool(ops) and not program.writes
    assert empty_process and write_only and read_only


@pytest.mark.parametrize("chunk", range(8))
def test_simulate_matches_the_rescan(chunk):
    for params in GRID[chunk::8]:
        fast = simulate(params)
        slow = reference_simulate(params)
        assert fast.events == slow.events, params
        assert fast.views == slow.views, params
        assert fast.execution.writes_to == slow.execution.writes_to, params
