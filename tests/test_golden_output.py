"""The CLI's output, byte for byte, against files stored in tests/golden.

Each case runs `causalrnr` in a scratch directory holding the bundled
fixtures, so that the paths the reports print are stable, and compares
its exit code, standard output and standard error with one stored file.
The cases pin what a change to the engines must keep: `gen` and `fuzz`
output, the `check` verdicts and violations of every bundled fixture
under all three consistency models, with and without `--exists`, the
records of all three kinds, and the `verify` verdicts and
counterexamples in both fidelity modes under both consistency models, on
every minimal record and on each such record with its first edge
dropped.

To rewrite the stored files after a deliberate change of output, run
this module as a script: `PYTHONPATH=src python tests/test_golden_output.py`.
"""

from __future__ import annotations

import contextlib
import io
from pathlib import Path

import pytest

from causalrnr import fixtures
from causalrnr.cli import main
from causalrnr.textio import parse_execution, parse_record, serialize_record

GOLDEN = Path(__file__).resolve().with_name("golden")

RECORD_KINDS = (("view-offline", ()), ("view-online", ("--online",)), ("race", ("--model2",)))
VERIFIED_KINDS = (("view-offline", "--model1"), ("race", "--model2"))
CONSISTENCIES = ("causal", "strong-causal")
CHECKED = ("causal", "strong-causal", "cache")
# `gen` runs whose output is pinned and then verified like a fixture's
GENERATED = (
    ("gen-seed-1", ["gen", "--seed", "1"]),
    ("gen-seed-3", ["gen", "--seed", "3", "--ops-per-process", "4"]),
)


def run(argv: list[str]) -> str:
    """The report of one CLI run: the command, its exit code, its
    standard output and, if any, its standard error."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    text = f"$ causalrnr {' '.join(argv)}\nexit: {code}\n{out.getvalue()}"
    if err.getvalue():
        text += f"--- stderr\n{err.getvalue()}"
    return text


def check_cases(names: list[str]) -> list[tuple[str, list[str]]]:
    """`check` of each fixture's views under every model, and `check
    --exists` under the two models that search for an explanation."""
    out = []
    for name in names:
        for consistency in CHECKED:
            out.append((
                f"check-{name}-{consistency}",
                ["check", f"{name}.txt", "--consistency", consistency],
            ))
        for consistency in CONSISTENCIES:
            out.append((
                f"check-{name}-{consistency}-exists",
                ["check", f"{name}.txt", "--consistency", consistency, "--exists"],
            ))
    return out


def record_cases(names: list[str]) -> list[tuple[str, list[str]]]:
    return [
        (f"record-{name}-{kind}", ["record", f"{name}.txt", *flags])
        for name in names
        for kind, flags in RECORD_KINDS
    ]


def write_records(workdir: Path, names: list[str]) -> list[tuple[str, str, str]]:
    """Writes each minimal record the CLI builds for the fixtures `names`
    and, for a record with an edge, a copy with its first edge dropped;
    returns (fixture, record file, fidelity flag) for the records that
    were built."""
    out = []
    for name in names:
        text = (workdir / f"{name}.txt").read_text(encoding="utf-8")
        program = parse_execution(text).program
        for kind, flag in VERIFIED_KINDS:
            path = f"{name}.{kind}.rec"
            argv = ["record", f"{name}.txt", "-o", path]
            if flag == "--model2":
                argv.append(flag)
            with contextlib.redirect_stderr(io.StringIO()):
                if main(argv) != 0:
                    continue
            out.append((name, path, flag))
            record = parse_record((workdir / path).read_text(encoding="utf-8"), program)
            edges = list(record.all_edges())
            if edges:
                dropped = f"{name}.{kind}-dropped.rec"
                (workdir / dropped).write_text(
                    serialize_record(record.drop(*edges[0]), program), encoding="utf-8"
                )
                out.append((name, dropped, flag))
    return out


def verify_cases(records: list[tuple[str, str, str]]) -> list[tuple[str, list[str]]]:
    out = []
    for name, path, flag in records:
        for consistency in CONSISTENCIES:
            out.append((
                f"verify-{path.removesuffix('.rec')}-{consistency}",
                ["verify", f"{name}.txt", path, flag, "--consistency", consistency],
            ))
    return out


def cases(workdir: Path) -> list[tuple[str, list[str]]]:
    """Every case, with the scratch directory `workdir` filled with the
    fixtures and records its commands read."""
    for name in fixtures.names():
        (workdir / f"{name}.txt").write_text(fixtures.text(name), encoding="utf-8")
    for name, argv in GENERATED:
        main([*argv, "-o", f"{name}.txt"])
    names = [*fixtures.names(), *(name for name, _ in GENERATED)]
    return [
        *GENERATED,
        ("fuzz-seed-77", ["fuzz", "--seed", "77", "--iterations", "20"]),
        # the fuzz benchmark's size, up to 10 operations, where placement does
        # real work
        ("fuzz-seed-7", [
            "fuzz", "--seed", "7", "--iterations", "40", "--processes", "3",
            "--ops-per-process", "4", "--variables", "2", "--write-ratio", "0.5",
        ]),
        # four processes, up to 8 operations: more views for each verdict
        # to share
        ("fuzz-seed-11-p4", [
            "fuzz", "--seed", "11", "--iterations", "30", "--processes", "4",
            "--ops-per-process", "2", "--variables", "2", "--write-ratio", "0.6",
        ]),
        # 29-35 operations, past the enumeration cap of 10 that the
        # battery's queries do not have
        ("fuzz-seed-3-p4-large", [
            "fuzz", "--seed", "3", "--iterations", "4", "--processes", "4",
            "--ops-per-process", "15", "--variables", "3", "--write-ratio", "0.5",
        ]),
        *check_cases(list(fixtures.names())),
        *record_cases(names),
        *verify_cases(write_records(workdir, names)),
    ]


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    workdir = tmp_path_factory.mktemp("golden")
    with pytest.MonkeyPatch.context() as patch:
        patch.chdir(workdir)
        return {name: run(argv) for name, argv in cases(workdir)}


def test_every_stored_file_has_a_case(outputs):
    stored = {path.stem for path in GOLDEN.glob("*.txt")}
    assert stored == set(outputs)


def test_output_matches_the_stored_files(outputs):
    differing = [
        name
        for name, text in sorted(outputs.items())
        if not (GOLDEN / f"{name}.txt").is_file()
        or (GOLDEN / f"{name}.txt").read_text(encoding="utf-8") != text
    ]
    assert not differing, f"CLI output differs from tests/golden for {differing}"


if __name__ == "__main__":
    import os
    import tempfile

    GOLDEN.mkdir(exist_ok=True)
    for stale in GOLDEN.glob("*.txt"):
        stale.unlink()
    with tempfile.TemporaryDirectory() as scratch:
        here = os.getcwd()
        os.chdir(scratch)
        try:
            for name, argv in cases(Path(scratch)):
                (GOLDEN / f"{name}.txt").write_text(run(argv), encoding="utf-8")
        finally:
            os.chdir(here)
