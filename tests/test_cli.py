"""CLI: exit codes, report shapes, determinism of generated output."""

import pytest

from causalrnr import fixtures
from causalrnr.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture()
def fixture_file(tmp_path):
    def write(name):
        path = tmp_path / f"{name}.txt"
        path.write_text(fixtures.text(name), encoding="utf-8")
        return str(path)

    return write


class TestCheck:
    def test_causal_ok(self, capsys, fixture_file):
        code, out, _ = run(capsys, "check", fixture_file("separation"), "--consistency", "causal")
        assert code == 0 and "result: ok" in out

    def test_strong_causal_violation(self, capsys, fixture_file):
        code, out, _ = run(capsys, "check", fixture_file("separation"))
        assert code == 1 and "result: violation" in out

    def test_exists_none(self, capsys, fixture_file):
        code, out, _ = run(
            capsys, "check", fixture_file("separation"),
            "--consistency", "strong-causal", "--exists",
        )
        assert code == 1 and "explanation: none" in out

    def test_exists_found(self, capsys, fixture_file):
        code, out, _ = run(
            capsys, "check", fixture_file("separation"),
            "--consistency", "causal", "--exists",
        )
        assert code == 0 and "explanation: found" in out and "view 1:" in out

    def test_cache(self, capsys, fixture_file):
        code, out, _ = run(
            capsys, "check", fixture_file("separation"), "--consistency", "cache"
        )
        assert code == 0 and "result: ok" in out

    def test_cache_violation(self, capsys, tmp_path):
        # each process reads the other's write after its own: no single
        # total order of the operations on x satisfies both reads
        path = tmp_path / "crossing.txt"
        path.write_text(
            "process 1: w(x)#a r(x)#c\n"
            "process 2: w(x)#b r(x)#d\n"
            "reads: c<-b d<-a\n",
            encoding="utf-8",
        )
        code, out, _ = run(capsys, "check", str(path), "--consistency", "cache")
        assert code == 1
        assert out.splitlines() == [
            "check: cache",
            "result: violation",
            "detail: no total order of the operations on x "
            "respects program order and the recorded read values",
        ]

    def test_check_can_also_emit_dot(self, capsys, fixture_file, tmp_path):
        out_path = tmp_path / "g.dot"
        code, _, _ = run(
            capsys, "check", fixture_file("separation"),
            "--consistency", "causal", "--dot", str(out_path),
        )
        assert code == 0
        assert "digraph" in out_path.read_text(encoding="utf-8")

    def test_parse_error_exits_two(self, capsys, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("process 1: w(x)a\n", encoding="utf-8")
        code, _, err = run(capsys, "check", str(bad))
        assert code == 2 and "error:" in err

    def test_directory_argument_exits_two(self, capsys, tmp_path):
        code, out, err = run(capsys, "check", str(tmp_path))
        assert code == 2 and out == "" and err.startswith("error: ")

    def test_unwritable_output_path_exits_two(self, capsys, fixture_file, tmp_path):
        # a directory cannot be opened for writing, whatever its permissions
        code, _, err = run(capsys, "record", fixture_file("write-race"), "-o", str(tmp_path))
        assert code == 2 and err.startswith("error: ")


class TestRecordAndVerify:
    def test_offline_record_output(self, capsys, fixture_file):
        code, out, _ = run(capsys, "record", fixture_file("indirect-order"), "--model1", "--offline")
        assert code == 0
        assert "record 1:\n" in out
        assert "record 2: w2->w1" in out
        assert "record 3: w1->w2" in out

    def test_online_record_output(self, capsys, fixture_file):
        code, out, _ = run(capsys, "record", fixture_file("indirect-order"), "--online")
        assert code == 0 and "record 1: w1->w2" in out

    def test_race_record_output(self, capsys, fixture_file):
        code, out, _ = run(capsys, "record", fixture_file("race-agreement"), "--model2")
        assert code == 0 and "record 1:\n" in out and "record 2: w2->w1" in out

    def test_online_race_recording_unsupported(self, capsys, fixture_file):
        code, _, err = run(
            capsys, "record", fixture_file("race-agreement"), "--model2", "--online"
        )
        assert code == 2 and "error" in err

    def test_verify_good_and_not_good(self, capsys, fixture_file, tmp_path):
        source = fixture_file("indirect-order")
        record = tmp_path / "record.txt"
        record.write_text(
            "record 1:\nrecord 2: w2->w1\nrecord 3: w1->w2\n", encoding="utf-8"
        )
        code, out, _ = run(capsys, "verify", source, str(record), "--model1")
        assert code == 0 and "verdict: good" in out
        record.write_text("record 1:\nrecord 2: w2->w1\nrecord 3:\n", encoding="utf-8")
        code, out, _ = run(capsys, "verify", source, str(record), "--model1")
        assert code == 1 and "verdict: not-good" in out and "view 1:" in out

    def test_verify_naive_record_under_causal(self, capsys, fixture_file, tmp_path):
        source = fixture_file("naive-view-record")
        record = tmp_path / "record.txt"
        record.write_text(
            "record 1: w1->w3 w4->w2\n"
            "record 2: w1->w3 w4->r2\n"
            "record 3: w3->w1 w2->w4\n"
            "record 4: w3->w1 w2->r4\n",
            encoding="utf-8",
        )
        code, out, _ = run(
            capsys, "verify", source, str(record), "--model1", "--consistency", "causal"
        )
        assert code == 1 and "verdict: not-good" in out

    def test_record_then_verify_pipeline(self, capsys, fixture_file, tmp_path):
        source = fixture_file("write-race")
        out_path = tmp_path / "r.txt"
        code, _, _ = run(capsys, "record", source, "--model2", "-o", str(out_path))
        assert code == 0
        code, out, _ = run(capsys, "verify", source, str(out_path), "--model2")
        assert code == 0 and "verdict: good" in out

    def test_verify_rejects_duplicate_record_lines(self, capsys, fixture_file, tmp_path):
        record = tmp_path / "record.txt"
        record.write_text("record 1:\nrecord 2: w2->w1\nrecord 1:\n", encoding="utf-8")
        code, out, err = run(
            capsys, "verify", fixture_file("write-race"), str(record), "--model2"
        )
        assert code == 2 and out == "" and "duplicate record line for process 1" in err

    def test_recording_non_strongly_causal_views_fails_cleanly(self, capsys, fixture_file):
        code, _, err = run(capsys, "record", fixture_file("separation"))
        assert code == 2 and "error:" in err

    def test_verify_default_model(self, capsys, fixture_file, tmp_path):
        source = fixture_file("indirect-order")
        record = tmp_path / "record.txt"
        record.write_text("record 1:\nrecord 2: w2->w1\nrecord 3:\n", encoding="utf-8")
        code, out, _ = run(capsys, "verify", source, str(record))
        assert code == 1 and "verdict: not-good" in out

    def test_jobs_is_a_usage_error(self, capsys, fixture_file, tmp_path):
        source = fixture_file("indirect-order")
        record = tmp_path / "record.txt"
        record.write_text("record 1:\nrecord 2: w2->w1\nrecord 3:\n", encoding="utf-8")
        with pytest.raises(SystemExit) as exit_info:
            run(capsys, "verify", source, str(record), "--jobs", "2")
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --jobs 2" in capsys.readouterr().err

    def test_env_var_caps_enumeration(self, capsys, fixture_file, monkeypatch):
        monkeypatch.setenv("CAUSAL_RNR_MAX_OPS", "4")
        code, _, err = run(
            capsys, "check", fixture_file("separation"),
            "--consistency", "causal", "--exists",
        )
        assert code == 2 and "exceed" in err

    def test_max_ops_flag_overrides_env(self, capsys, fixture_file, monkeypatch):
        monkeypatch.setenv("CAUSAL_RNR_MAX_OPS", "4")
        code, out, _ = run(
            capsys, "check", fixture_file("separation"),
            "--consistency", "causal", "--exists", "--max-ops", "10",
        )
        assert code == 0 and "explanation: found" in out

    @pytest.mark.parametrize("command", ["check", "fuzz"])
    def test_negative_max_ops_is_a_usage_error(self, capsys, fixture_file, command):
        # fuzz has no --max-ops: every query of its battery is a
        # strong-model one, with no cap
        if command == "check":
            argv = ["check", fixture_file("separation"), "--max-ops", "-1"]
            expected = "--max-ops"
        else:
            argv = ["fuzz", "--seed", "1", "--iterations", "1", "--max-ops", "-2"]
            expected = "unrecognized arguments: --max-ops -2"
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert expected in captured.err

    @pytest.mark.parametrize("value", ["abc", "-1", "2.5"])
    @pytest.mark.parametrize("command", ["check"])
    def test_invalid_env_cap_is_a_usage_error(
        self, capsys, fixture_file, monkeypatch, command, value
    ):
        monkeypatch.setenv("CAUSAL_RNR_MAX_OPS", value)
        argv = [command, fixture_file("separation"), "--consistency", "causal", "--exists"]
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert "failure" not in out and "explanation" not in out
        assert f"CAUSAL_RNR_MAX_OPS must be a non-negative integer, not {value!r}" in err


class TestGenAndFuzz:
    def test_gen_deterministic(self, capsys):
        _, first, _ = run(capsys, "gen", "--seed", "11", "--processes", "3")
        _, second, _ = run(capsys, "gen", "--seed", "11", "--processes", "3")
        assert first == second
        assert "prng=python-random-mt19937" in first

    def test_gen_output_parses_and_checks(self, capsys, tmp_path):
        path = tmp_path / "gen.txt"
        code, _, _ = run(capsys, "gen", "--seed", "5", "-o", str(path))
        assert code == 0
        code, out, _ = run(capsys, "check", str(path))
        assert code == 0 and "result: ok" in out

    def test_fuzz_deterministic_and_green(self, capsys):
        args = ("fuzz", "--seed", "3", "--iterations", "4")
        code_a, out_a, _ = run(capsys, *args)
        code_b, out_b, _ = run(capsys, *args)
        assert code_a == code_b == 0
        assert out_a == out_b
        assert "fuzz: ok iterations=4" in out_a

    def test_fuzz_negative_iterations_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["fuzz", "--seed", "1", "--iterations", "-3"])
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--iterations" in captured.err

    def test_fuzz_zero_iterations_is_valid(self, capsys):
        code, out, _ = run(capsys, "fuzz", "--seed", "1", "--iterations", "0")
        assert code == 0
        assert out == "fuzz: ok iterations=0\n"

    def test_fuzz_failure_dumps_the_fixture(self, capsys, monkeypatch):
        from causalrnr import cli
        from causalrnr.battery import BatteryFailure

        def explode(execution, views, max_ops=None):
            raise BatteryFailure("view-record", "synthetic failure")

        monkeypatch.setattr(cli, "run_battery", explode)
        code, out, _ = run(capsys, "fuzz", "--seed", "1", "--iterations", "3")
        assert code == 1
        assert "fuzz: failure at iteration 0" in out
        assert "synthetic failure" in out
        assert "process 1:" in out  # reproducing fixture dumped


class TestDotAndExamples:
    def test_dot_deterministic_with_clusters_and_styles(self, capsys, fixture_file):
        source = fixture_file("indirect-order")
        _, first, _ = run(capsys, "dot", source)
        _, second, _ = run(capsys, "dot", source)
        assert first == second
        assert "subgraph cluster_v1" in first
        assert 'color="gray50"' in first  # plain view edges

    def test_dot_styles_record_edges(self, capsys, fixture_file, tmp_path):
        source = fixture_file("indirect-order")
        record = tmp_path / "record.txt"
        record.write_text("record 1:\nrecord 2: w2->w1\nrecord 3: w1->w2\n", encoding="utf-8")
        _, out, _ = run(capsys, "dot", source, "--record", str(record))
        assert 'color="red"' in out

    def test_examples_listing_and_content(self, capsys):
        code, out, _ = run(capsys, "examples")
        assert code == 0
        for name in fixtures.names():
            assert name in out
        code, out, _ = run(capsys, "examples", "separation")
        assert code == 0 and "process 1:" in out

    def test_examples_unknown_name(self, capsys):
        code, _, err = run(capsys, "examples", "nope")
        assert code == 2 and "unknown fixture" in err
