#!/usr/bin/env python3
"""Reference figures measured once, outside the gated runs.

    python3 perfbench/figures.py settle      # largest empty-record enumeration within a budget
    python3 perfbench/figures.py explain     # find_explanation above the default cap

`settle` enumerates the certifying sets of the empty record, strong
causal model, on three generated 3-process fixtures per operation count
and reports, per count, how many settled within the placement budget
and at what rate.  `explain` runs find_explanation on a 13-operation
execution that is strongly causal by construction, past the 10-operation
default cap, until the 5M-placement budget runs out.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

SETTLE_BUDGET = 200_000
EXPLAIN_BUDGET = 5_000_000


def settle():
    from causalrnr import oracle
    from causalrnr.errors import BudgetExceeded
    from causalrnr.generator import GenParams, gen_strong_causal
    from causalrnr.records import Record

    for ops in range(6, 11):
        settled = 0
        seed = 0
        tried = []
        while len(tried) < 3:
            params = GenParams(seed=seed, processes=3, ops_per_process=4, variables=2,
                               write_ratio=0.6)
            seed += 1
            execution, _ = gen_strong_causal(params)
            program = execution.program
            if len(program.all_ops) != ops:
                continue
            empty = Record.of({p: frozenset() for p in program.processes})
            start = time.perf_counter()
            count = 0
            try:
                for _ in oracle.enumerate_certifying(program, empty, "strong_causal",
                                                     max_ops=ops, node_budget=SETTLE_BUDGET):
                    count += 1
                settled += 1
                outcome = f"{count} sets"
            except BudgetExceeded:
                outcome = "budget exhausted"
            tried.append(f"seed {params.seed} ({len(program.writes)} writes): {outcome}, "
                         f"{time.perf_counter() - start:.2f}s")
        print(f"{ops} operations: {settled}/3 settled within {SETTLE_BUDGET} placements")
        for line in tried:
            print(f"    {line}")


def explain():
    from causalrnr import consistency
    from causalrnr.errors import BudgetExceeded
    from causalrnr.generator import GenParams, gen_strong_causal

    params = GenParams(seed=38, processes=5, ops_per_process=3, variables=2, write_ratio=0.5)
    execution, _ = gen_strong_causal(params)
    start = time.perf_counter()
    try:
        found = consistency.find_explanation(execution, "strong_causal", max_ops=13,
                                             node_budget=EXPLAIN_BUDGET)
        outcome = "found" if found is not None else "no explanation"
    except BudgetExceeded as exc:
        outcome = f"budget exhausted after {exc.explored} placements"
    elapsed = time.perf_counter() - start
    print(f"{len(execution.program.all_ops)} operations: {outcome} in {elapsed:.1f}s")


def main(argv) -> int:
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    figures = {"settle": settle, "explain": explain}
    if len(argv) != 1 or argv[0] not in figures:
        print(__doc__, file=sys.stderr)
        return 2
    figures[argv[0]]()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
