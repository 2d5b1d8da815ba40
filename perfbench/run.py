#!/usr/bin/env python3
"""Benchmark of the causalrnr verifier.

    python3 perfbench/run.py --workload fuzz --seed 1 --seconds 20 --trace 0

Runs one workload (fuzz, verify, enumerate or record) in this process,
one item after another, and checks every result.  With `--trace 0` it
sets up the corpus three times, then repeats whole rounds of the corpus
until `--seconds` would be exceeded, and prints the end-to-end metrics.
With `--trace 1` it runs one untraced round, then installs the tracer,
sets up and runs one traced round, and prints the per-layer metrics.
The last line of standard output is one JSON object: correct, attempted,
failed and metrics.  See perfbench/README.md.
"""

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import collections  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
SETUP_REPEATS = 3
P90_MIN_ITEMS = 100
CALIBRATION_S = 0.004  # the calibration loop's time at the reference speed


def _calibration_loop():
    total = 0
    table = {}
    for i in range(30000):
        total += i * i % 7
        table[i % 1000] = total
    return total


class Clock:
    """Times scaled to a reference machine speed.

    The host's speed drifts: the calibration loop alone takes anywhere
    from 3.6 to 17 ms within a minute.  Every timed span is multiplied by
    CALIBRATION_S over the median of the last five calibration loops,
    which run next to it (before each group of items, around each
    set-up), so the figures read in seconds at the reference speed.
    """

    def __init__(self):
        self.samples = collections.deque(maxlen=5)
        self.raw = 0.0  # unscaled seconds of every scaled span

    def calibrate(self, times=1):
        for _ in range(times):
            start = time.perf_counter()
            _calibration_loop()
            self.samples.append(time.perf_counter() - start)

    def scaled(self, seconds):
        self.raw += seconds
        return seconds * CALIBRATION_S / statistics.median(self.samples)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("fuzz", "verify", "enumerate", "record"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


class Round:
    def __init__(self):
        self.times = {}  # item name -> scaled seconds
        self.attempted = 0
        self.failed = 0
        self.problems = []

    @property
    def wall(self):
        return sum(self.times.values())


def run_round(corpus, clock, tracer=None) -> Round:
    """Run every item once; time only the program call, check outside it."""
    from checks import CheckFailed

    out = Round()
    gc.collect()
    for group in corpus:
        results = {}
        clock.calibrate()
        for item in group.items:
            out.attempted += 1
            start = time.perf_counter()
            try:
                result = item.run()
            except Exception:  # a failed operation is counted, not fatal
                out.failed += 1
                out.problems.append(f"{item.name} raised:\n{traceback.format_exc()}")
                continue
            out.times[item.name] = clock.scaled(time.perf_counter() - start)
            results[item.name] = result
            with paused(tracer):
                try:
                    item.check(result)
                except CheckFailed as exc:
                    out.problems.append(str(exc))
        if group.check is not None and len(results) == len(group.items):
            with paused(tracer):
                try:
                    group.check(results)
                except CheckFailed as exc:
                    out.problems.append(str(exc))
    return out


class paused:
    def __init__(self, tracer):
        self.tracer = tracer

    def __enter__(self):
        if self.tracer is not None:
            self.tracer.paused = True

    def __exit__(self, *exc):
        if self.tracer is not None:
            self.tracer.paused = False


def end_to_end(rounds, setup_s):
    """Each item's time is its median over the rounds; the workload's
    time is the sum of those."""
    per_item = [statistics.median(r.times[name] for r in rounds if name in r.times)
                for name in rounds[0].times]
    wall = sum(per_item)
    metrics = {
        "setup_s": (setup_s, "s"),
        "wall_s": (wall, "s"),
        "items_per_s": (len(per_item) / wall, "1/s"),
        "item_p50_ms": (statistics.median(per_item) * 1e3, "ms"),
    }
    if len(per_item) >= P90_MIN_ITEMS:
        metrics["item_p90_ms"] = (statistics.quantiles(per_item, n=10)[8] * 1e3, "ms")
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    return metrics


def measure(corpus, clock, seconds, setup_s):
    rounds = []
    start = time.perf_counter()
    while True:
        rounds.append(run_round(corpus, clock))
        elapsed = time.perf_counter() - start
        if elapsed * (len(rounds) + 1) / len(rounds) > seconds:
            return rounds, end_to_end(rounds, setup_s)


def measure_traced(corpus, clock, build, seed):
    import tracer as tracing

    untraced = run_round(corpus, clock)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced_corpus = build(seed)
        gen = tracer.per_function().get("generator.gen_strong_causal", (0, 0.0, 0.0))
        tracer.reset()
        traced = run_round(traced_corpus, clock, tracer)
    finally:
        tracer.uninstall()
    metrics = tracer.metrics()
    metrics["generator.gen_strong_causal.calls"] = (gen[0], "count")
    metrics["generator.gen_strong_causal.s"] = (gen[1], "s")
    metrics["trace.overhead_ratio"] = (traced.wall / untraced.wall, "ratio")
    if tracer.counters["search.placements"] != tracer.budget_placements():
        traced.problems.append(
            f"traced placements {tracer.counters['search.placements']} differ from "
            f"NodeBudget.explored total {tracer.budget_placements()}")
    print("\n".join(tracer.caller_table()), file=sys.stderr)
    return [untraced, traced], metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "causalrnr" / "__init__.py").is_file():
        print(f"error: no causalrnr sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    from causalrnr import kernels

    import selftest
    import tracer as tracing
    import workloads

    build = workloads.WORKLOADS[args.workload]
    import_s = time.perf_counter() - _START
    clock = Clock()
    clock.calibrate(5)
    import_s = clock.scaled(import_s)
    setups = []
    for _ in range(SETUP_REPEATS):
        gc.collect()
        clock.calibrate(2)
        start = time.perf_counter()
        corpus = build(args.seed)
        elapsed = time.perf_counter() - start
        clock.calibrate(3)
        setups.append(clock.scaled(elapsed))
    setup_s = import_s + statistics.median(setups)
    setup_raw = clock.raw

    if args.trace:
        rounds, metrics = measure_traced(corpus, clock, build, args.seed)
    else:
        rounds, metrics = measure(corpus, clock, args.seconds, setup_s)

    problems = [p for r in rounds for p in r.problems]
    if not tracing.is_pristine():
        problems.append("traced wrappers are still installed")
    problems += selftest.check_selftest()
    if args.trace:
        problems += selftest.tracer_selftest()
    for p in problems:
        print(f"CHECK FAILED: {p}", file=sys.stderr)

    print(f"# workload={args.workload} seed={args.seed} trace={args.trace} "
          f"backend={kernels.BACKEND} python={platform.python_version()} "
          f"cpus={os.cpu_count()} rounds={len(rounds)} items={len(rounds[0].times)} "
          f"scaled_s={sum(r.wall for r in rounds):.3f} raw_s={clock.raw - setup_raw:.3f} "
          f"setups={','.join(f'{s:.3f}' for s in setups)} import_s={import_s:.3f}")
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
