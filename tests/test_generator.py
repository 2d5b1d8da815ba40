"""Generator: determinism, consistency by construction, delivery rules."""

import hashlib

import pytest

from causalrnr.cli import main
from causalrnr.consistency import check_strong_causal, strong_causal_order
from causalrnr.generator import GenParams, gen_program, gen_strong_causal, simulate
from causalrnr.model import validate_view


class TestGenProgram:
    def test_empty(self):
        program = gen_program(GenParams(seed=1, processes=1, ops_per_process=0, variables=1))
        assert program.all_ops == ()

    def test_deterministic(self):
        params = GenParams(seed=42, processes=3, ops_per_process=3, variables=2)
        assert gen_program(params) == gen_program(params)

    def test_seed_sweep_hits_cross_process_races(self):
        found = 0
        for seed in range(100):
            program = gen_program(
                GenParams(seed=seed, processes=3, ops_per_process=2, variables=2)
            )
            per_var: dict[str, set[int]] = {}
            for op in program.ops.values():
                per_var.setdefault(op.variable, set()).add(op.process)
            if any(len(procs) > 1 for procs in per_var.values()):
                found += 1
        assert found >= 1


class TestGenParamsValidation:
    # each of these was accepted, or failed deep inside `random`, before
    # the parameters were type-checked

    def test_none_seed_is_rejected(self):
        # random.Random(None) seeds from OS entropy: not reproducible
        with pytest.raises(ValueError, match="seed"):
            GenParams(seed=None, processes=2, ops_per_process=2, variables=1)

    def test_float_processes_is_rejected(self):
        with pytest.raises(ValueError, match="processes"):
            GenParams(seed=1, processes=2.0, ops_per_process=2, variables=1)

    def test_fractional_ops_per_process_is_rejected(self):
        with pytest.raises(ValueError, match="ops_per_process"):
            GenParams(seed=1, processes=2, ops_per_process=3.5, variables=1)

    def test_bool_variables_is_rejected(self):
        with pytest.raises(ValueError, match="variables"):
            GenParams(seed=1, processes=2, ops_per_process=2, variables=True)

    def test_string_write_ratio_is_rejected(self):
        with pytest.raises(ValueError, match="write_ratio"):
            GenParams(seed=1, processes=2, ops_per_process=2, variables=1,
                      write_ratio="0.5")

    def test_int_write_ratio_is_accepted(self):
        params = GenParams(seed=1, processes=2, ops_per_process=2, variables=1,
                           write_ratio=1)
        assert gen_program(params).all_ops == gen_program(
            GenParams(seed=1, processes=2, ops_per_process=2, variables=1,
                      write_ratio=1.0)
        ).all_ops


class TestGenStrongCausal:
    def test_single_process_view_is_program_order(self):
        execution, views = gen_strong_causal(
            GenParams(seed=3, processes=1, ops_per_process=4, variables=2)
        )
        assert views[1].sequence == execution.program.own(1)
        assert check_strong_causal(views, execution) is None

    def test_every_seed_is_strongly_causal(self):
        for seed in range(60):
            execution, views = gen_strong_causal(
                GenParams(seed=seed, processes=3, ops_per_process=2, variables=2)
            )
            assert check_strong_causal(views, execution) is None
            for view in views.views:
                assert validate_view(view, execution) is None

    def test_deterministic_outputs(self):
        params = GenParams(seed=99, processes=3, ops_per_process=3, variables=2)
        a = gen_strong_causal(params)
        b = gen_strong_causal(params)
        assert a == b

    def test_divergent_order_shape_reachable(self):
        # some seed reproduces the two-writer shape where two processes
        # adopt the writes in opposite orders
        for seed in range(200):
            execution, views = gen_strong_causal(
                GenParams(
                    seed=seed, processes=3, ops_per_process=1, variables=2,
                    write_ratio=1.0,
                )
            )
            writes = execution.program.writes
            if len(writes) < 2:
                continue
            w1, w2 = writes[0], writes[1]
            orders = {
                (views[i].orders(w1, w2)) for i in execution.program.processes
            }
            if orders == {True, False}:
                return
        raise AssertionError("no divergent-order fixture in the sweep")


class TestDeliveryRules:
    def test_writes_never_beat_their_predecessors(self):
        for seed in range(40):
            trace = simulate(
                GenParams(seed=seed, processes=3, ops_per_process=3, variables=2)
            )
            program = trace.execution.program
            observed: dict[str, frozenset] = {}
            applied = {p: set() for p in program.processes}
            for event in trace.events:
                if event[0] == "exec":
                    _, p, o = event
                    if program.is_write(o):
                        observed[o] = frozenset(applied[p] & set(program.writes))
                        applied[p].add(o)
                    else:
                        applied[p].add(o)
                else:
                    _, p, w = event
                    assert observed[w] <= applied[p], (seed, event)
                    applied[p].add(w)

    def test_final_views_respect_observation_sets(self):
        trace = simulate(GenParams(seed=5, processes=3, ops_per_process=3, variables=1))
        program = trace.execution.program
        sco = strong_causal_order(trace.views, program)
        for view in trace.views.views:
            pos = view.positions
            for a, b in sco.pairs:
                assert pos[a] < pos[b]


# sha256 of `causalrnr gen` output, pinned so that a change to the
# simulation loop cannot silently change the generated executions
GEN_OUTPUT_SHA256 = (
    (("--seed", "11"),
     "ae862251b9f7e43caf11c97df8008389f44160fac69db94de02ba538bdb6f1c2"),
    (("--seed", "110", "--processes", "5", "--ops-per-process", "3",
      "--write-ratio", "0.5"),
     "409416ffb6adf9dbffc17bd91446f31f6d1a37fb9eb8e7709531c178bf254e2e"),
    (("--seed", "7", "--processes", "4", "--ops-per-process", "4",
      "--variables", "3", "--write-ratio", "0.7"),
     "9fac6bc035bf7a3e658dbbfa51d583d753c760636a1b52962f804e1293ef5d11"),
    (("--seed", "2024", "--processes", "6", "--ops-per-process", "5",
      "--variables", "1"),
     "32593947c7f25e365ce4e611a649c7f9087816069d5f52be7e16c9d6f86ba397"),
    # past 30 operations: up to 256 at 16 processes, and one process alone
    (("--seed", "5", "--processes", "16", "--ops-per-process", "16",
      "--variables", "4"),
     "bfc599e9979aadd371f350f90548618b7a68955eb5b19859385712ec0755e013"),
    (("--seed", "2", "--processes", "10", "--ops-per-process", "10",
      "--variables", "3", "--write-ratio", "0.5"),
     "72a94806f92822ba39e0550f856e34044efac7987dc4eee04ee39ab6eb2aa274"),
    (("--seed", "3", "--processes", "1", "--ops-per-process", "6",
      "--variables", "2"),
     "9c72395bd9bf121de417bcb9540ddb9ed7b2589ac28b3f4517c77b1c58239d29"),
)


@pytest.mark.parametrize("argv,digest", GEN_OUTPUT_SHA256)
def test_gen_output_is_pinned(capsys, argv, digest):
    assert main(["gen", *argv]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest
