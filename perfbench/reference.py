"""Reference certifying counts for the `enumerate` workload, computed
apart from the program.

The enumerator walks the cartesian product of per-process permutations
(each process's own operations plus every write, in any order that keeps
program order) and keeps the view sets that a checker written here
accepts: every read returns the last preceding same-variable write of
its owner's view, and every view respects the model's order -- the
write-read-write order for causal, the strong causal order for strong
causal.  Both orders only grow as views are added, so a partial product
that already breaks one is cut; no other pruning is done.

    python3 perfbench/reference.py        # rewrites perfbench/reference_counts.json

Only the program's data classes are read (operation ids, kinds,
variables and processes); none of its checkers or searches are used.
"""

from __future__ import annotations

import itertools
import json
import sys
import time
from pathlib import Path

REFERENCE_FILE = Path(__file__).resolve().parent / "reference_counts.json"

CAUSAL = "causal"
STRONG_CAUSAL = "strong_causal"


class Shape:
    """Plain copy of a program: per process, its (id, kind, variable) ops."""

    def __init__(self, program):
        self.procs = tuple(sorted(program.processes))
        self.own = {p: tuple((op.id, op.kind, op.variable) for op in program.listing[k])
                    for k, p in enumerate(program.processes)}
        self.kind = {o: k for ops in self.own.values() for o, k, _ in ops}
        self.var = {o: v for ops in self.own.values() for o, _, v in ops}
        self.proc = {o: p for p, ops in self.own.items() for o, _, _ in ops}
        self.writes = tuple(sorted(o for o, k in self.kind.items() if k == "w"))
        self.po = {(a[0], b[0]) for ops in self.own.values()
                   for i, a in enumerate(ops) for b in ops[i + 1:]}

    def universe(self, p):
        return sorted({o for o, _, _ in self.own[p]} | set(self.writes))


def _respects(seq, pairs):
    pos = {o: i for i, o in enumerate(seq)}
    return all(pos[a] < pos[b] for a, b in pairs if a in pos and b in pos)


def candidate_views(shape: Shape, p):
    """Every order of p's universe that keeps program order, in
    lexicographic order of the sequences."""
    universe = shape.universe(p)
    po = [(a, b) for a, b in shape.po if a in universe and b in universe]
    return [seq for seq in itertools.permutations(universe) if _respects(seq, po)]


def sources(shape: Shape, p, seq):
    """Writes-to of p's reads derived from its view: the last preceding
    same-variable write, None for the initial value."""
    last, out = {}, {}
    for o in seq:
        if shape.kind[o] == "w":
            last[shape.var[o]] = o
        elif shape.proc[o] == p:
            out[o] = last.get(shape.var[o])
    return out


def model_pairs(shape: Shape, p, seq, model):
    """The orderings one view forces on every view of the set."""
    pos = {o: i for i, o in enumerate(seq)}
    own = [o for o, _, _ in shape.own[p]]
    pairs = set()
    if model == STRONG_CAUSAL:
        for b in own:
            if shape.kind[b] == "w":
                pairs.update((a, b) for a in shape.writes if a != b and pos[a] < pos[b])
        return pairs
    for r, w in sources(shape, p, seq).items():
        if w is None:
            continue
        for w2 in own[own.index(r) + 1:]:
            if shape.kind[w2] == "w" and w2 != w:
                pairs.add((w, w2))
    return pairs


def reads_valid(shape: Shape, views, writes_to) -> bool:
    """Each read returns the last preceding same-variable write of its view."""
    return all(sources(shape, p, seq) == {r: writes_to.get(r) for r in sources(shape, p, seq)}
               for p, seq in views.items())


def check_views(shape: Shape, views, writes_to, model) -> str | None:
    """None when `views` (process -> sequence) explains `writes_to` under
    the model; otherwise the first broken rule."""
    for p in shape.procs:
        seq = views[p]
        if sorted(seq) != shape.universe(p):
            return f"view {p} does not order exactly its own operations plus all writes"
    if not reads_valid(shape, views, writes_to):
        return "a read does not return its recorded source"
    if model == CAUSAL:
        forced = set()
        for r, w in writes_to.items():
            if w is None:
                continue
            own = [o for o, _, _ in shape.own[shape.proc[r]]]
            forced.update((w, w2) for w2 in own[own.index(r) + 1:]
                          if shape.kind[w2] == "w" and w2 != w)
    else:
        forced = set().union(*(model_pairs(shape, p, views[p], model) for p in shape.procs))
    for p in shape.procs:
        if not _respects(views[p], shape.po):
            return f"view {p} breaks program order"
        if not _respects(views[p], forced):
            return f"view {p} breaks the {model} order"
    return None


def count_certifying(program, model) -> int:
    """Certifying view sets of the empty record, by filtered product."""
    shape = Shape(program)
    choices = [(p, [(seq, model_pairs(shape, p, seq, model)) for seq in candidate_views(shape, p)])
               for p in shape.procs]
    count = 0

    def extend(depth, chosen, forced):
        nonlocal count
        if depth == len(choices):
            views = {p: seq for p, seq, _ in chosen}
            writes_to = {}
            for p, seq in views.items():
                writes_to.update(sources(shape, p, seq))
            if check_views(shape, views, writes_to, model) is not None:
                raise AssertionError("filtered product kept a view set the checker rejects")
            count += 1
            return
        p, options = choices[depth]
        for seq, pairs in options:
            if not _respects(seq, forced):
                continue
            if not all(_respects(other, pairs) for _, other, _ in chosen):
                continue
            chosen.append((p, seq, pairs))
            extend(depth + 1, chosen, forced | pairs)
            chosen.pop()

    extend(0, [], frozenset())
    return count


def load() -> dict[str, int]:
    with open(REFERENCE_FILE) as f:
        return {entry["id"]: entry["count"] for entry in json.load(f)["items"]}


def main() -> int:
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import workloads

    items = []
    start = time.perf_counter()
    for fixture in workloads.enumerate_pool():
        for model in fixture.models:
            count = count_certifying(fixture.execution.program, model)
            items.append({"id": f"{fixture.name}:{model}", "count": count})
            print(f"{fixture.name}:{model} {count}", file=sys.stderr)
    with open(REFERENCE_FILE, "w") as f:
        json.dump({"method": "filtered cartesian product of per-process permutations",
                   "items": items}, f, indent=1)
        f.write("\n")
    print(f"wrote {len(items)} counts in {time.perf_counter() - start:.1f}s", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
