"""Seeded generation of programs and strongly causal executions.

Executions come from simulating replicated shared memory: each process
keeps a replica of every variable, applies its own writes immediately
(writers commit locally before propagating), and delivers remote writes
only after all of their observed predecessors.  That delivery rule makes
every generated execution strongly causal by construction; the checker
re-verifies it anyway.

The PRNG is `random.Random` (Mersenne Twister); identical parameters give
byte-identical output.  All distributions here are artifact choices with
no external meaning.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from causalrnr.model import (
    Execution,
    Operation,
    Program,
    READ,
    View,
    ViewSet,
    WRITE,
    derive_writes_to,
)

PRNG_NAME = "python-random-mt19937"


@dataclass(frozen=True)
class GenParams:
    seed: int
    processes: int
    ops_per_process: int
    variables: int
    write_ratio: float = 0.6

    def __post_init__(self):
        if self.processes < 1:
            raise ValueError("need at least one process")
        if self.ops_per_process < 0:
            raise ValueError("ops_per_process must be nonnegative")
        if self.variables < 1:
            raise ValueError("need at least one variable")
        if not 0.0 <= self.write_ratio <= 1.0:
            raise ValueError("write_ratio must be in [0, 1]")

    def header_fields(self) -> list[tuple[str, str]]:
        return [
            ("seed", str(self.seed)),
            ("processes", str(self.processes)),
            ("ops_per_process", str(self.ops_per_process)),
            ("variables", str(self.variables)),
            ("write_ratio", repr(self.write_ratio)),
            ("prng", PRNG_NAME),
        ]


@dataclass(frozen=True)
class SimTrace:
    """Full simulation trace: the event log backs the delivery-soundness
    checks in the test suite."""

    execution: Execution
    views: ViewSet
    events: tuple[tuple, ...]


def _draw_program(rng: random.Random, params: GenParams) -> Program:
    per_process: dict[int, list[Operation]] = {}
    for p in range(1, params.processes + 1):
        count = rng.randint(0, params.ops_per_process)
        ops = []
        for n in range(count):
            kind = WRITE if rng.random() < params.write_ratio else READ
            var = f"x{rng.randrange(params.variables)}"
            ops.append(Operation(kind, p, var, f"{kind}{p}_{n:02d}"))
        per_process[p] = ops
    return Program.of(per_process)


def gen_program(params: GenParams) -> Program:
    return _draw_program(random.Random(params.seed), params)


def simulate(params: GenParams) -> SimTrace:
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
        # the draw depends on this order alone, not on the scan's
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
    # each read returns the last write its process had applied, which is
    # the last preceding write in its view
    return SimTrace(derive_writes_to(views, program), views, tuple(events))


def gen_strong_causal(params: GenParams) -> tuple[Execution, ViewSet]:
    trace = simulate(params)
    return trace.execution, trace.views
