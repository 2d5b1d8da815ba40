"""The four benchmark workloads: corpus set-up and the timed items.

A corpus is a list of groups, one per fixture; a group is a list of
items, each one timed call into the public API of `causalrnr`, plus the
check its result must pass.  `build(seed)` is the set-up: it generates
the fixtures and the records and perturbed executions the items need.
Every call passes `max_ops` and `node_budget` explicitly, so the
environment cannot change a workload.

Fixtures come in strata: a generator template plus an exact operation
and write count.  Each workload uses a fixed pool (constant generation
seeds, and in `verify` a dropped edge and a re-sourced read drawn from
the fixture's name) and takes only the order of the groups from the run
seed: per-fixture cost is heavy-tailed, and a corpus drawn per seed and
small enough for one run moved its total and tail by 8 to 100 percent
from seed to seed.  The `enumerate` pool is also what the reference
counts in `reference_counts.json` cover.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Callable

from causalrnr import battery, consistency, generator, oracle, race_record, view_record
from causalrnr.model import Execution
from causalrnr.records import Record

import checks
import reference

MAX_OPS = 10
SEARCH_BUDGET = 5_000_000  # find_explanation
ORACLE_BUDGET = 20_000_000  # enumerate_certifying and the goodness verdicts


@dataclass(frozen=True)
class Stratum:
    processes: int
    ops_per_process: int
    variables: int
    write_ratio: float
    ops: tuple[int, ...]  # accepted total operation counts
    writes: tuple[int, ...]  # accepted write counts
    count: int
    models: tuple[str, ...] = ("strong_causal",)


@dataclass
class Fixture:
    name: str
    execution: Execution
    views: Any
    models: tuple[str, ...] = ()


@dataclass
class Item:
    name: str
    run: Callable[[], Any]
    check: Callable[[Any], None]


@dataclass
class Group:
    items: list[Item]
    check: Callable[[dict], None] | None = None


def _start(label: str) -> int:
    return random.Random(label).randrange(10**9)


def _draw(stratum: Stratum, label: str) -> list[Fixture]:
    out = []
    seed = _start(label)
    while len(out) < stratum.count:
        params = generator.GenParams(seed=seed, processes=stratum.processes,
                                     ops_per_process=stratum.ops_per_process,
                                     variables=stratum.variables,
                                     write_ratio=stratum.write_ratio)
        execution, views = generator.gen_strong_causal(params)
        program = execution.program
        if len(program.all_ops) in stratum.ops and len(program.writes) in stratum.writes:
            name = f"p{stratum.processes}v{stratum.variables}w{stratum.write_ratio}-s{seed}"
            out.append(Fixture(name, execution, views, stratum.models))
        seed += 1
    return out


def _pool(strata, label) -> list[Fixture]:
    return [f for k, s in enumerate(strata) for f in _draw(s, f"{label}:{k}")]


def _shuffled(groups, seed):
    random.Random(seed).shuffle(groups)
    return groups


# -- fuzz ---------------------------------------------------------------------

FUZZ = tuple(
    Stratum(3, 4, v, w, (k,), (nw,), 10)
    for k, nw, w in (
        (6, 3, 0.5), (6, 4, 0.7), (7, 3, 0.4), (7, 4, 0.6), (8, 3, 0.4), (8, 4, 0.5),
    )
    for v in (1, 2)
)


def _fuzz_group(f: Fixture) -> Group:
    def run():
        try:
            return battery.run_battery(f.execution, f.views, max_ops=MAX_OPS)
        except battery.BatteryFailure as failure:
            return failure

    return Group([Item(f.name, run, checks.battery)])


def build_fuzz(seed: int) -> list[Group]:
    return _shuffled([_fuzz_group(f) for f in _pool(FUZZ, "fuzz")], seed)


# -- verify -------------------------------------------------------------------

VERIFY = (
    Stratum(3, 4, 1, 0.6, (8, 9, 10), (4, 5, 6), 6),
    Stratum(3, 4, 2, 0.6, (8, 9, 10), (4, 5, 6), 6),
    Stratum(4, 3, 1, 0.5, (8,), (4, 5), 12),
    Stratum(4, 3, 2, 0.5, (8,), (4, 5), 12),
)


def _perturbed(execution: Execution, rng: random.Random) -> Execution | None:
    """A copy with one read's source re-drawn among the other writes of
    its variable and the initial value."""
    program = execution.program
    choices = []
    for read in program.all_ops:
        if not program.is_write(read):
            current = execution.writes_to.get(read)
            options = [None] + [w for w in program.writes if program.var_of(w) == program.var_of(read)]
            choices += [(read, o) for o in options if o != current]
    if not choices:
        return None
    read, source = rng.choice(choices)
    writes_to = dict(execution.writes_to)
    if source is None:
        del writes_to[read]
    else:
        writes_to[read] = source
    return Execution(program, writes_to)


def _verify_group(f: Fixture, rng: random.Random) -> Group:
    views, execution = f.views, f.execution
    program = execution.program
    minimal_view = view_record.minimal_view_record(views, execution)
    online = view_record.online_record_from_views(views, execution)
    minimal_race = race_record.minimal_race_record(views, execution)
    empty = Record.of({p: frozenset() for p in program.processes})
    items = []

    def goodness(label, query, record, check):
        def run():
            return query(views, program, record, "strong_causal",
                         max_ops=MAX_OPS, node_budget=ORACLE_BUDGET)
        items.append(Item(f"{f.name}:{label}", run, check))

    for kind, query, minimal in (("view", oracle.is_good_view_record, minimal_view),
                                 ("race", oracle.is_good_race_record, minimal_race)):
        name = f"{f.name}:{kind}"
        goodness(f"{kind}-min", query, minimal, lambda v, n=name: checks.minimal_good(v, n))
        edges = list(minimal.all_edges())
        if edges:
            process, edge = rng.choice(edges)
            reduced = minimal.drop(process, edge)
            diff = "views" if kind == "view" else "dro"
            goodness(f"{kind}-drop", query, reduced,
                     lambda v, r=reduced, d=diff, p=process, e=edge, n=name:
                     checks.dropped_edge(v, views, program, r, d, p, e, n))
        goodness(f"{kind}-empty", query, empty,
                 lambda v, m=minimal, n=name: checks.empty_record(v, m, n))
    goodness("view-online", oracle.is_good_view_record, online,
             lambda v, n=f.name: checks.online_good(v, n))

    copies = [("orig", execution, views)]
    perturbed = _perturbed(execution, rng)
    if perturbed is not None:
        copies.append(("pert", perturbed, None))
    for tag, ex, generated in copies:
        for model in (consistency.STRONG_CAUSAL, consistency.CAUSAL):
            def run(ex=ex, model=model):
                return consistency.find_explanation(ex, model, max_ops=MAX_OPS,
                                                    node_budget=SEARCH_BUDGET)
            items.append(Item(f"{f.name}:expl-{model}-{tag}", run,
                              lambda found, ex=ex, m=model, g=generated, n=f.name:
                              checks.explanation(found, ex, m, g, n)))

    def group_check(results):
        for tag, _, _ in copies:
            checks.strong_implies_causal(results[f"{f.name}:expl-strong_causal-{tag}"],
                                         results[f"{f.name}:expl-causal-{tag}"], f.name)

    return Group(items, group_check)


def build_verify(seed: int) -> list[Group]:
    groups = [_verify_group(f, random.Random(f.name)) for f in _pool(VERIFY, "verify")]
    return _shuffled(groups, seed)


# -- enumerate ----------------------------------------------------------------

SC, C = (consistency.STRONG_CAUSAL,), (consistency.STRONG_CAUSAL, consistency.CAUSAL)
ENUMERATE = (
    Stratum(3, 3, 1, 0.5, (6,), (3,), 6, C),
    Stratum(3, 3, 2, 0.5, (6,), (3,), 6, C),
    Stratum(3, 3, 1, 0.5, (6,), (4,), 6),
    Stratum(3, 3, 2, 0.5, (6,), (4,), 6),
    Stratum(3, 3, 1, 0.5, (7,), (2,), 8, C),
    Stratum(3, 3, 2, 0.5, (7,), (2,), 8, C),
    Stratum(3, 3, 1, 0.5, (7,), (3,), 6),
    Stratum(3, 3, 2, 0.5, (7,), (3,), 6),
    Stratum(3, 3, 1, 0.5, (8,), (2,), 3, C),
    Stratum(3, 3, 2, 0.5, (8,), (2,), 3, C),
    Stratum(3, 3, 1, 0.5, (8,), (3,), 6),
    Stratum(3, 3, 2, 0.5, (8,), (3,), 6),
)


def enumerate_pool() -> list[Fixture]:
    return _pool(ENUMERATE, "enumerate")


def _enumerate_group(f: Fixture, expected: dict[str, int]) -> Group:
    program = f.execution.program
    empty = Record.of({p: frozenset() for p in program.processes})
    items = []
    for model in f.models:
        key = f"{f.name}:{model}"
        if key not in expected:
            raise KeyError(f"no reference count for {key}; run perfbench/reference.py")

        def run(model=model):
            return list(oracle.enumerate_certifying(program, empty, model, max_ops=MAX_OPS,
                                                    node_budget=ORACLE_BUDGET))
        items.append(Item(key, run, lambda found, k=key:
                          checks.certifying_sets(found, f.views, expected[k], k)))

    def group_check(results):
        if len(f.models) == 2:
            checks.causal_at_least_strong(len(results[f"{f.name}:causal"]),
                                          len(results[f"{f.name}:strong_causal"]), f.name)

    return Group(items, group_check)


def build_enumerate(seed: int) -> list[Group]:
    expected = reference.load()
    return _shuffled([_enumerate_group(f, expected) for f in enumerate_pool()], seed)


# -- record -------------------------------------------------------------------

RECORD = (
    Stratum(4, 4, 2, 0.5, (12, 13, 14), tuple(range(5, 8)), 4),
    Stratum(5, 3, 2, 0.5, (12, 13, 14), tuple(range(5, 8)), 4),
    Stratum(6, 3, 3, 0.5, (12, 13, 14), tuple(range(5, 8)), 4),
)


def _record_group(f: Fixture) -> Group:
    views, execution = f.views, f.execution
    offline = view_record.minimal_view_record(views, execution)
    race = race_record.minimal_race_record(views, execution)

    def build():
        violation = consistency.check_strong_causal(views, execution)
        return (violation,
                view_record.minimal_view_record(views, execution),
                view_record.online_record_from_views(views, execution),
                race_record.minimal_race_record(views, execution))

    def check_records(result):
        violation, off, on, rr = result
        if violation is not None:
            raise checks.CheckFailed(f"{f.name}: fixture rejected: {violation}")
        checks.records(views, execution, off, on, rr, f.name)

    items = [Item(f"{f.name}:records", build, check_records)]
    for kind, witness, record, diff in (
        ("view", oracle.necessity_witness_view_record, offline, "views"),
        ("race", oracle.necessity_witness_race_record, race, "dro"),
    ):
        for process, edge in record.all_edges():
            items.append(Item(
                f"{f.name}:{kind}-witness-{process}-{edge[0]}-{edge[1]}",
                lambda w=witness, p=process, e=edge: w(views, execution, p, e),
                lambda found, r=record, p=process, e=edge, d=diff:
                checks.witness(found, views, execution, r, p, e, d, f.name)))
    return Group(items)


def build_record(seed: int) -> list[Group]:
    return _shuffled([_record_group(f) for f in _pool(RECORD, "record")], seed)


WORKLOADS = {
    "fuzz": build_fuzz,
    "verify": build_verify,
    "enumerate": build_enumerate,
    "record": build_record,
}
