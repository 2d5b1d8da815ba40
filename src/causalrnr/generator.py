"""Seeded generation of programs and strongly causal executions.

Executions come from simulating replicated shared memory: each process
keeps a replica of every variable, applies its own writes immediately
(writers commit locally before propagating), and delivers remote writes
only after all of their observed predecessors.  That delivery rule makes
every generated execution strongly causal by construction; the checker
re-verifies it anyway.  As in causal broadcast, a write waits at each
process on a count of its observed writes not yet applied there: its
exec sets the counts, and an apply updates the applying process's only.

The PRNG is `random.Random` (Mersenne Twister); identical parameters give
byte-identical output.  All distributions here are artifact choices with
no external meaning.
"""

from __future__ import annotations

import random
from bisect import insort
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
        # a None seed would draw from OS entropy, and a float count fails
        # deep inside `random`: both are usage errors here
        for name in ("seed", "processes", "ops_per_process", "variables"):
            value = getattr(self, name)
            if type(value) is not int:
                raise ValueError(f"{name} must be an int, not {value!r}")
        if type(self.write_ratio) not in (int, float):
            raise ValueError(f"write_ratio must be a real number, not {self.write_ratio!r}")
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
    """Draw the program, then take one uniformly drawn move per step until
    none is left.  A write becomes deliverable at another process when its
    count of observed writes not applied there reaches zero.  Move k is
    the k-th of the deliveries by (process, id), then the execs by
    process: the order in which `("deliver", p, w)` and `("exec", p, o)`
    tuples sort, so each draw picks the move a sorted list of them gave."""
    rng = random.Random(params.seed)
    program = _draw_program(rng, params)
    procs = sorted(program.processes)
    bit = {w: 1 << i for i, w in enumerate(program.writes)}

    own = {p: program.own(p) for p in procs}
    next_op = {p: 0 for p in procs}
    view: dict[int, list[str]] = {p: [] for p in procs}
    seen: dict[int, list[str]] = {p: [] for p in procs}  # applied writes
    applied = {p: 0 for p in procs}  # the same, as a mask
    ready: dict[int, list[str]] = {p: [] for p in procs}  # sorted by id
    missing: dict[int, dict[str, int]] = {p: {} for p in procs}
    observers: dict[str, list[str]] = {w: [] for w in bit}
    runnable = [p for p in procs if own[p]]
    deliverable = 0
    events: list[tuple] = []

    while deliverable or runnable:
        k = rng.randrange(deliverable + len(runnable))
        if k < deliverable:
            for p in procs:
                if k < len(ready[p]):
                    break
                k -= len(ready[p])
            op = ready[p].pop(k)
            deliverable -= 1
            events.append(("deliver", p, op))
            counts = missing[p]
            for o in observers[op]:
                if o in counts:  # not p's own write
                    counts[o] -= 1
                    if not counts[o]:
                        insort(ready[p], o)
                        deliverable += 1
        else:
            k -= deliverable
            p = runnable[k]
            op = own[p][next_op[p]]
            next_op[p] += 1
            if next_op[p] == len(own[p]):
                del runnable[k]
            events.append(("exec", p, op))
            if op in bit:
                for w in seen[p]:
                    observers[w].append(op)
                for q in procs:
                    if q != p:
                        count = (applied[p] & ~applied[q]).bit_count()
                        if count:
                            missing[q][op] = count
                        else:
                            insort(ready[q], op)
                            deliverable += 1
        view[p].append(op)
        if op in bit:
            seen[p].append(op)
            applied[p] |= bit[op]

    views = ViewSet.of([View(p, tuple(view[p])) for p in procs])
    # each read returns the last write its process had applied, which is
    # the last preceding write in its view
    return SimTrace(derive_writes_to(views, program), views, tuple(events))


def gen_strong_causal(params: GenParams) -> tuple[Execution, ViewSet]:
    trace = simulate(params)
    return trace.execution, trace.views
