import pytest

from causalrnr import fixtures
from causalrnr.consistency import CAUSAL, STRONG_CAUSAL, check_causal, check_strong_causal
from causalrnr.generator import GenParams, gen_strong_causal
from causalrnr.model import Execution, derive_writes_to


@pytest.fixture(scope="session")
def corpus():
    """Loaded bundled fixtures keyed by name."""
    return {name: fixtures.load(name) for name in fixtures.names()}


def small_generated(count=40, max_total_ops=6):
    """A deterministic batch of small strongly causal fixtures."""
    grids = (
        dict(processes=3, ops_per_process=2, variables=1, write_ratio=1.0),
        dict(processes=3, ops_per_process=2, variables=2, write_ratio=0.6),
        dict(processes=2, ops_per_process=3, variables=1, write_ratio=0.7),
        dict(processes=2, ops_per_process=2, variables=2, write_ratio=0.4),
        dict(processes=1, ops_per_process=4, variables=2, write_ratio=0.5),
    )
    out = []
    seed = 0
    while len(out) < count:
        grid = grids[seed % len(grids)]
        execution, views = gen_strong_causal(GenParams(seed=seed, **grid))
        if len(execution.program.all_ops) <= max_total_ops:
            out.append((execution, views))
        seed += 1
    return out


def resourced(execution, rng):
    """A copy with one read's source re-drawn among the other writes of
    its variable and the initial value, or None if there is no read."""
    program = execution.program
    choices = []
    for read in program.all_ops:
        if not program.is_write(read):
            current = execution.writes_to.get(read)
            options = [None] + [
                w for w in program.writes if program.var_of(w) == program.var_of(read)
            ]
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


def reference_certifies(candidate, program, record, model):
    """Certification as first defined, sharing no code with
    `oracle.certifies`: every view orders its process's record edges as
    recorded, and the model's checker accepts the views together with
    the execution they derive."""
    if model not in (CAUSAL, STRONG_CAUSAL):
        raise ValueError(f"unsupported replay model {model!r}")
    for i in sorted(program.processes):
        pos = candidate[i].positions
        for a, b in record.edges(i):
            if a not in pos or b not in pos:
                raise ValueError(f"record edge ({a}, {b}) escapes process {i}'s view")
            if pos[a] > pos[b]:
                return False
    derived = derive_writes_to(candidate, program)
    check = check_causal if model == CAUSAL else check_strong_causal
    return check(candidate, derived) is None


@pytest.fixture(scope="session")
def generated_corpus():
    return small_generated()


# (processes, ops_per_process, variables, write_ratio, accepted operation
# counts, fixtures); the last three are the record benchmark's templates
TEMPLATES = (
    (3, 3, 1, 0.7, range(6, 10), 6),
    (3, 4, 2, 0.6, range(8, 12), 6),
    (4, 4, 2, 0.5, range(12, 15), 4),
    (5, 3, 2, 0.5, range(12, 15), 4),
    (6, 3, 3, 0.5, range(12, 15), 4),
)


def record_generated():
    """Named strongly causal fixtures of 6-14 operations."""
    out = []
    for processes, per, variables, ratio, sizes, count in TEMPLATES:
        seed, found = 0, 0
        while found < count:
            execution, views = gen_strong_causal(
                GenParams(seed, processes, per, variables, ratio)
            )
            if len(execution.program.all_ops) in sizes:
                out.append((f"p{processes}x{per}v{variables}-s{seed}", execution, views))
                found += 1
            seed += 1
    return out
