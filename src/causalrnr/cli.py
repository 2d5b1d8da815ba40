"""Command-line entry point.

Exit codes: 0 for ok/good, 1 for violation/not-good, 2 for usage, parse
or budget errors.  Reports are line-oriented `key: value` with stable
field ordering; view sets print as `view <pid>: ...` blocks that can be
pasted back into fixture files.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

from causalrnr import dot as dotmod
from causalrnr import fixtures, oracle
from causalrnr.battery import BatteryFailure, run_battery
from causalrnr.consistency import (
    CACHE,
    CAUSAL,
    STRONG_CAUSAL,
    check_cache,
    check_causal,
    check_strong_causal,
    find_explanation,
)
from causalrnr.errors import BudgetExceeded, CausalRnrError
from causalrnr.generator import GenParams, gen_strong_causal
from causalrnr.race_record import minimal_race_record
from causalrnr.textio import parse_execution, parse_record, serialize_execution, serialize_record
from causalrnr.view_record import minimal_view_record, online_record_from_views

_CONSISTENCY = {"causal": CAUSAL, "strong-causal": STRONG_CAUSAL, "cache": CACHE}


def _write_output(text: str, path: str | None) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)


def _load(path: str):
    with open(path, "r", encoding="utf-8") as handle:
        return parse_execution(handle.read())


def _print_views(views) -> None:
    for view in views.views:
        seq = " ".join(view.sequence)
        print(f"view {view.process}:{' ' + seq if seq else ''}")


def _count(text: str) -> int:
    """A non-negative integer option; anything else is a usage error."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be at least 0, not {value}")
    return value


def _add_common(parser: argparse.ArgumentParser) -> None:
    help_text = "enumeration cap (default 10, env CAUSAL_RNR_MAX_OPS)"
    parser.add_argument("--max-ops", type=_count, default=None, help=help_text)


def cmd_check(args) -> int:
    parsed = _load(args.file)
    model = _CONSISTENCY[args.consistency]
    print(f"check: {args.consistency}")
    if args.dot:
        _write_output(
            dotmod.render(parsed.program, parsed.execution, parsed.views), args.dot
        )
    if model == CACHE:
        bad = check_cache(parsed.execution)
        if bad is None:
            print("result: ok")
            return 0
        print("result: violation")
        print(f"detail: {bad}")
        return 1
    if args.exists:
        found = find_explanation(parsed.execution, model, max_ops=args.max_ops)
        if found is None:
            print("explanation: none")
            return 1
        print("explanation: found")
        _print_views(found)
        return 0
    if parsed.views is None:
        print("error: file has no views; use --exists to search for an explanation",
              file=sys.stderr)
        return 2
    checker = check_causal if model == CAUSAL else check_strong_causal
    bad = checker(parsed.views, parsed.execution)
    if bad is None:
        print("result: ok")
        return 0
    print("result: violation")
    print(f"detail: {bad}")
    return 1


def cmd_record(args) -> int:
    parsed = _load(args.file)
    if parsed.views is None:
        print("error: recording needs views in the input file", file=sys.stderr)
        return 2
    if args.model2 and args.online:
        print("error: online recording is only supported for the view-fidelity model",
              file=sys.stderr)
        return 2
    if args.model2:
        record = minimal_race_record(parsed.views, parsed.execution)
        kind = "race offline"
    elif args.online:
        record = online_record_from_views(parsed.views, parsed.execution)
        kind = "view online"
    else:
        record = minimal_view_record(parsed.views, parsed.execution)
        kind = "view offline"
    text = f"# {kind} record of {args.file}\n" + serialize_record(record, parsed.program)
    _write_output(text, args.output)
    return 0


def cmd_verify(args) -> int:
    parsed = _load(args.file)
    if parsed.views is None:
        print("error: verification needs views in the input file", file=sys.stderr)
        return 2
    with open(args.record, "r", encoding="utf-8") as handle:
        record = parse_record(handle.read(), parsed.program)
    model = _CONSISTENCY[args.consistency]
    if model == CACHE:
        print("error: record verification supports causal or strong-causal",
              file=sys.stderr)
        return 2
    if args.dot:
        _write_output(
            dotmod.render(parsed.program, parsed.execution, parsed.views, record),
            args.dot,
        )
    judge = oracle.is_good_race_record if args.model2 else oracle.is_good_view_record
    verdict = judge(parsed.views, parsed.program, record, model, max_ops=args.max_ops)
    print(f"model: {'race' if args.model2 else 'view'}")
    print(f"consistency: {args.consistency}")
    print(f"certifying-inspected: {verdict.enumerated}")
    if verdict.good:
        print("verdict: good")
        return 0
    print("verdict: not-good")
    print("counterexample:")
    _print_views(verdict.counterexample)
    return 1


def cmd_gen(args) -> int:
    params = GenParams(
        seed=args.seed,
        processes=args.processes,
        ops_per_process=args.ops_per_process,
        variables=args.variables,
        write_ratio=args.write_ratio,
    )
    execution, views = gen_strong_causal(params)
    header = ["generated strongly causal execution"]
    header += [f"{k}={v}" for k, v in params.header_fields()]
    text = serialize_execution(execution.program, execution, views, header)
    _write_output(text, args.output)
    return 0


def cmd_fuzz(args) -> int:
    base = GenParams(
        seed=args.seed,
        processes=args.processes,
        ops_per_process=args.ops_per_process,
        variables=args.variables,
        write_ratio=args.write_ratio,
    )
    for n in range(args.iterations):
        params = dataclasses.replace(base, seed=base.seed * 1_000_003 + n)
        execution, views = gen_strong_causal(params)
        try:
            stats = run_battery(execution, views)
        except (BatteryFailure, CausalRnrError) as failure:
            print(f"fuzz: failure at iteration {n}")
            print(f"detail: {failure}")
            print("fixture:")
            header = [f"{k}={v}" for k, v in params.header_fields()]
            sys.stdout.write(
                serialize_execution(execution.program, execution, views, header)
            )
            return 1
        print(
            f"iteration {n}: ok ops={len(execution.program.all_ops)} "
            f"view-edges={stats.view_edges_checked} "
            f"race-edges={stats.race_edges_checked}"
        )
    print(f"fuzz: ok iterations={args.iterations}")
    return 0


def cmd_dot(args) -> int:
    parsed = _load(args.file)
    record = None
    if args.record:
        with open(args.record, "r", encoding="utf-8") as handle:
            record = parse_record(handle.read(), parsed.program)
    _write_output(
        dotmod.render(parsed.program, parsed.execution, parsed.views, record),
        args.output,
    )
    return 0


def cmd_examples(args) -> int:
    if args.name is None:
        for fixture in fixtures.FIXTURES:
            print(f"{fixture.name}: {fixture.description}")
        return 0
    try:
        sys.stdout.write(fixtures.text(args.name))
    except KeyError:
        print(f"error: unknown fixture {args.name!r}; run `examples` to list",
              file=sys.stderr)
        return 2
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="causalrnr",
        description="Minimal records for replaying causally consistent shared memory",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="check a fixture against a consistency model")
    p.add_argument("file")
    p.add_argument("--consistency", choices=sorted(_CONSISTENCY), default="strong-causal")
    p.add_argument("--exists", action="store_true",
                   help="search for any explaining view set instead of checking the given one")
    p.add_argument("--dot", default=None, help="also write a DOT graph here")
    _add_common(p)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("record", help="compute a record from views")
    p.add_argument("file")
    fidelity = p.add_mutually_exclusive_group()
    fidelity.add_argument("--model1", action="store_true", default=True,
                          help="view fidelity (default)")
    fidelity.add_argument("--model2", action="store_true", default=False,
                          help="data-race fidelity")
    timing = p.add_mutually_exclusive_group()
    timing.add_argument("--offline", action="store_true", default=True)
    timing.add_argument("--online", action="store_true", default=False)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_record)

    p = sub.add_parser("verify", help="judge a record with the replay oracle")
    p.add_argument("file")
    p.add_argument("record")
    fidelity = p.add_mutually_exclusive_group()
    fidelity.add_argument("--model1", action="store_true", default=True)
    fidelity.add_argument("--model2", action="store_true", default=False)
    p.add_argument("--consistency", choices=["causal", "strong-causal"],
                   default="strong-causal")
    p.add_argument("--dot", default=None)
    _add_common(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("gen", help="generate a strongly causal execution")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--processes", type=int, default=3)
    p.add_argument("--ops-per-process", type=int, default=2)
    p.add_argument("--variables", type=int, default=2)
    p.add_argument("--write-ratio", type=float, default=0.6)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("fuzz", help="run the invariant battery on generated fixtures")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--iterations", type=_count, default=20)
    p.add_argument("--processes", type=int, default=3)
    p.add_argument("--ops-per-process", type=int, default=2)
    p.add_argument("--variables", type=int, default=2)
    p.add_argument("--write-ratio", type=float, default=0.6)
    p.set_defaults(func=cmd_fuzz)

    p = sub.add_parser("dot", help="export a fixture as a DOT graph")
    p.add_argument("file")
    p.add_argument("--record", default=None)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_dot)

    p = sub.add_parser("examples", help="list or print bundled fixtures")
    p.add_argument("name", nargs="?", default=None)
    p.set_defaults(func=cmd_examples)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (CausalRnrError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
