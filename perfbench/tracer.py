"""Call tracer for the per-layer run.

The tracer wraps public functions of the `causalrnr` modules from outside
the package.  Modules bind functions by name (`oracle` imports
`transitive_closure` directly, for instance), so each function is
replaced at every `causalrnr.*` module attribute that refers to it, and
every original is put back by `uninstall`.

A span is one call, or one resumption of a generator: generator
functions are timed across every `next`, so the consumer's work between
yields is not charged to them.  Spans are aggregated in memory per
(function, caller) as calls, self time and inclusive time; self time is
a span's duration minus the spans nested directly inside it.

Counters ride on the same wrappers: kernel cells, `Relation` values
built, placements (`NodeBudget.spend`), extensions and certifying sets
yielded, leaf checks accepted.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
from collections import Counter, defaultdict

# (module, attribute path); a dotted path names a method on a class.
SPANS = (
    ("kernels", "closure_rows"),
    ("kernels", "reduction_rows"),
    ("kernels", "has_cycle_rows"),
    ("relations", "transitive_closure"),
    ("relations", "union_closed"),
    ("relations", "transitive_reduction"),
    ("relations", "has_cycle"),
    ("search", "iter_extensions"),
    ("oracle", "certifies"),
    ("oracle", "enumerate_certifying"),
    ("oracle", "is_good_view_record"),
    ("oracle", "is_good_race_record"),
    ("oracle", "extend_to_views"),
    ("oracle", "necessity_witness_view_record"),
    ("oracle", "necessity_witness_race_record"),
    ("consistency", "check_strong_causal"),
    ("consistency", "check_causal"),
    ("consistency", "strong_causal_order"),
    ("consistency", "find_explanation"),
    ("model", "derive_writes_to"),
    ("model", "data_race_order"),
    ("view_record", "minimal_view_record"),
    ("view_record", "online_record_from_views"),
    ("race_record", "RaceAnalysis.strong_write_order"),
    ("race_record", "RaceAnalysis.flip_cascade"),
    ("race_record", "RaceAnalysis.indirectly_enforced"),
    ("race_record", "RaceAnalysis.record"),
    ("generator", "gen_strong_causal"),
    ("battery", "run_battery"),
)

# Spans reported as time only; every other span reports calls and time.
TIME_ONLY = {"view_record.minimal_view_record", "view_record.online_record_from_views",
             "battery.run_battery"}

ROOT = "-"


def _package_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "causalrnr" or name.startswith("causalrnr."))]


def _resolve(module: str, path: str):
    obj = importlib.import_module(f"causalrnr.{module}")
    *owners, attr = path.split(".")
    for owner in owners:
        obj = getattr(obj, owner)
    return obj, attr


class Tracer:
    def __init__(self):
        self.spans = defaultdict(lambda: [0, 0.0, 0.0])  # (name, caller) -> calls, self s, total s
        self.counters = Counter()
        self.budgets = []
        self.paused = False
        self._stack = []  # [name, start, time of nested spans]
        self._patches = []

    # -- span bookkeeping -------------------------------------------------

    def _enter(self, name):
        frame = [name, 0.0, 0.0]
        self._stack.append(frame)
        frame[1] = time.perf_counter()
        return frame

    def _exit(self, frame, count_call):
        duration = time.perf_counter() - frame[1]
        self._stack.pop()
        caller = self._stack[-1] if self._stack else None
        if caller is not None:
            caller[2] += duration
        entry = self.spans[(frame[0], caller[0] if caller else ROOT)]
        entry[0] += count_call
        entry[1] += duration - frame[2]
        entry[2] += duration

    def _caller(self):
        return self._stack[-1][0] if self._stack else ROOT

    # -- wrappers ---------------------------------------------------------

    def _wrap_function(self, name, fn, on_result):
        tracer = self

        def traced(*args, **kwargs):
            if tracer.paused:
                return fn(*args, **kwargs)
            frame = tracer._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(frame, 1)
            if on_result is not None:
                on_result(args, result)
            return result

        return traced

    def _wrap_generator(self, name, fn, on_yield):
        tracer = self

        def traced(*args, **kwargs):
            inner = fn(*args, **kwargs)
            if tracer.paused:
                return inner
            tracer.spans[(name, tracer._caller())][0] += 1
            return tracer._drive(name, inner, on_yield)

        return traced

    def _drive(self, name, inner, on_yield):
        try:
            while True:
                frame = self._enter(name)
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    self._exit(frame, 0)
                if on_yield is not None:
                    self.counters[on_yield] += 1
                yield item
        finally:
            inner.close()

    def _count_only(self, fn, counter):
        tracer = self

        def counted(*args, **kwargs):
            if not tracer.paused:
                tracer.counters[counter] += 1
            return fn(*args, **kwargs)

        return counted

    # -- install / uninstall ----------------------------------------------

    def _patch(self, owner, attr, value):
        value.__perfbench_traced__ = True
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        for module, _ in SPANS:
            importlib.import_module(f"causalrnr.{module}")
        modules = _package_modules()
        for module, path in SPANS:
            owner, attr = _resolve(module, path)
            original = getattr(owner, attr)
            name = f"{module}.{path}"
            if inspect.isgeneratorfunction(original):
                wrapper = self._wrap_generator(name, original, _YIELD_COUNTERS.get(name))
            else:
                wrapper = self._wrap_function(name, original, self._result_hook(name))
            wrapper.__wrapped__ = original
            if "." in path:
                self._patch(owner, attr, wrapper)
                continue
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._patch(m, key, wrapper)
        relations = sys.modules["causalrnr.relations"]
        search = sys.modules["causalrnr.search"]
        self._patch(relations.Relation, "__post_init__",
                    self._count_only(relations.Relation.__post_init__, "relations.Relation.built"))
        self._patch(search.NodeBudget, "spend",
                    self._count_only(search.NodeBudget.spend, "search.placements"))
        budget_init = search.NodeBudget.__init__
        tracer = self

        def init(budget, *args, **kwargs):
            budget_init(budget, *args, **kwargs)
            if not tracer.paused:
                tracer.budgets.append(budget)

        self._patch(search.NodeBudget, "__init__", init)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _result_hook(self, name):
        counters = self.counters
        if name == "kernels.closure_rows":
            def hook(args, result):
                counters["kernels.closure_rows.cells"] += len(args[0]) ** 2
            return hook
        if name == "oracle.certifies":
            def hook(args, result):
                counters["oracle.certifies.accepted"] += result is True
            return hook
        if name in ("oracle.is_good_view_record", "oracle.is_good_race_record"):
            def hook(args, result):
                counters["oracle.certifying"] += result.enumerated
            return hook
        return None

    # -- results ----------------------------------------------------------

    def reset(self):
        self.spans.clear()
        self.counters.clear()
        self.budgets.clear()

    def budget_placements(self) -> int:
        return sum(b.explored for b in self.budgets)

    def per_function(self):
        """name -> [calls, self s, total s], summed over callers."""
        out = defaultdict(lambda: [0, 0.0, 0.0])
        for (name, _caller), (calls, self_s, total_s) in self.spans.items():
            entry = out[name]
            entry[0] += calls
            entry[1] += self_s
            entry[2] += total_s
        return out

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics by name, as (value, unit)."""
        funcs = self.per_function()
        out: dict[str, tuple[float, str]] = {}
        for module, path in SPANS:
            name = f"{module}.{path}"
            calls, self_s, _ = funcs.get(name, (0, 0.0, 0.0))
            if name not in TIME_ONLY:
                out[f"{name}.calls"] = (calls, "count")
            out[f"{name}.s"] = (self_s, "s")
        c = self.counters
        out["kernels.closure_rows.cells"] = (c["kernels.closure_rows.cells"], "count")
        out["relations.Relation.built"] = (c["relations.Relation.built"], "count")
        placements = c["search.placements"]
        search_s = funcs.get("search.iter_extensions", (0, 0.0, 0.0))[1]
        out["search.placements"] = (placements, "count")
        out["search.extensions"] = (c["search.extensions"], "count")
        out["search.placements_per_s"] = (placements / search_s if search_s else 0.0, "1/s")
        calls = funcs.get("oracle.certifies", (0, 0.0, 0.0))[0]
        accepted = c["oracle.certifies.accepted"]
        out["oracle.certifies.accepted"] = (accepted, "count")
        out["oracle.certifies.accept_ratio"] = (accepted / calls if calls else 0.0, "ratio")
        out["oracle.certifying"] = (c["oracle.certifying"], "count")
        return out

    def caller_table(self) -> list[str]:
        rows = sorted(self.spans.items(), key=lambda kv: -kv[1][1])
        return [f"{name:<45} <- {caller:<40} calls={calls:<9} self_s={self_s:.4f} total_s={total_s:.4f}"
                for (name, caller), (calls, self_s, total_s) in rows]


_YIELD_COUNTERS = {
    "search.iter_extensions": "search.extensions",
    "oracle.enumerate_certifying": "oracle.certifying",
}


def is_pristine() -> bool:
    """True when no traced wrapper is bound anywhere in the package."""
    for m in _package_modules():
        for value in vars(m).values():
            if getattr(value, "__perfbench_traced__", False):
                return False
            if isinstance(value, type):
                if any(getattr(v, "__perfbench_traced__", False) for v in vars(value).values()):
                    return False
    return True
