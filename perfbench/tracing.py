"""In-process traced replay of a batch, with time and counts by module.

Jobs run through ``rainbowroman.cli.main(argv)`` with stdout captured and
every module ``lru_cache`` cleared before each job, so each job starts as
cold as a subprocess.  The tracer wraps the public functions in ``LAYERS``
from outside the package: each name is replaced in every module namespace
that binds it.  Spans (name, start, end, parent, job) stay in memory;
a span's self time is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import io
import os
import sys
import time
import traceback
from collections import Counter
from statistics import median

# layer -> (module, function names); the layer name is the metric prefix
LAYERS = {
    "cli.main": ("cli", ("main",)),
    "graph.parse_edge_list": ("graph", ("parse_edge_list",)),
    "graph.canonical_form": ("graph", ("canonical_form",)),
    "reduction.parse_dimacs": ("reduction", ("parse_dimacs",)),
    "reduction.verify_reduction": ("reduction", ("verify_reduction",)),
    "reduction.sat_brute_force": ("reduction", ("sat_brute_force",)),
    "constructions.gap_instance": ("constructions", ("gap_instance",)),
    "domination.gamma_r2": ("domination", ("gamma_r2",)),
    "domination.gamma_roman": ("domination", ("gamma_roman",)),
    "domination.all_min_2rdf": ("domination", ("all_min_2rdf",)),
    "structure.audit_summary": ("structure", ("audit_summary",)),
    "structure.audit_extremal": ("structure", ("audit_extremal",)),
    "hereditary.has_induced": ("hereditary", ("has_induced",)),
    "hereditary.direct": ("hereditary", ("hereditary_equality_direct",
                                         "hereditary_three_halves_direct")),
    "hereditary.solve_both_cached": ("hereditary", ("solve_both_cached",)),
    "catalog.scan": ("catalog", ("scan",)),
    "catalog.enumerate_graphs": ("catalog", ("enumerate_graphs",)),
}
# layer -> (count name, how to read it off the return value)
RESULT_COUNTS = {
    "domination.gamma_r2": ("nodes", lambda r: r.nodes),
    "domination.gamma_roman": ("nodes", lambda r: r.nodes),
    "domination.all_min_2rdf": ("functions", len),
}
# metric prefix -> lru_cache whose hit ratio it reports
HIT_RATIOS = {
    "hereditary.solve_both_cached": "hereditary._solved_by_mask",
    "hereditary.canonical_cache": "hereditary._canonical_by_mask",
}


def package_modules(package: str) -> list:
    """The package and its submodules that are imported, by name."""
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == package or name.startswith(package + "."))]


class Tracer:
    def __init__(self, package: str) -> None:
        self.package = package
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self.job = ""
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def _open(self) -> int:
        self.spans.append(None)
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def _close(self, layer: str, idx: int, start: float) -> None:
        end = time.perf_counter()
        self._stack.pop()
        parent = self._stack[-1] if self._stack else -1
        self.spans[idx] = (layer, start, end, parent, self.job)

    def _wrap(self, layer: str, fn):
        counted = RESULT_COUNTS.get(layer)

        @functools.wraps(fn)
        def call(*args, **kwargs):
            self.counts[f"{layer}.calls"] += 1
            idx = self._open()
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(layer, idx, start)
            if counted:
                self.counts[f"{layer}.{counted[0]}"] += counted[1](result)
            return result

        @functools.wraps(fn)
        def generate(*args, **kwargs):
            self.counts[f"{layer}.calls"] += 1
            items = fn(*args, **kwargs)
            while True:
                idx = self._open()
                start = time.perf_counter()
                try:
                    item = next(items)
                except StopIteration:
                    return
                finally:
                    self._close(layer, idx, start)
                yield item

        return generate if inspect.isgeneratorfunction(fn) else call

    def install(self) -> None:
        modules = package_modules(self.package)
        for layer, (module, names) in LAYERS.items():
            owner = sys.modules[f"{self.package}.{module}"]
            for name in names:
                original = getattr(owner, name)
                wrapper = self._wrap(layer, original)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            setattr(m, attr, wrapper)
                            self._patched.append((m, attr, original))

    def uninstall(self) -> None:
        for m, attr, original in reversed(self._patched):
            setattr(m, attr, original)
        self._patched.clear()

    def self_times(self) -> dict[str, float]:
        child = [0.0] * len(self.spans)
        for layer, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals: Counter = Counter()
        for i, (layer, start, end, _, _) in enumerate(self.spans):
            totals[layer] += end - start - child[i]
        return dict(totals)


def _lru_caches(package: str) -> dict[str, object]:
    caches = {}
    for module in package_modules(package):
        name = module.__name__
        for attr, value in vars(module).items():
            if (hasattr(value, "cache_info") and hasattr(value, "cache_clear")
                    and getattr(value, "__module__", None) == name):
                caches[f"{name[len(package) + 1:]}.{attr}"] = value
    return caches


class Replay:
    """Runs a batch in this process, untraced or traced, and gathers per-layer data."""

    def __init__(self, src_dir: str, package: str = "rainbowroman") -> None:
        sys.path.insert(0, src_dir)
        start = time.perf_counter()
        importlib.import_module(f"{package}.cli")
        self.import_s = time.perf_counter() - start
        self.package = package
        self.cli = sys.modules[f"{package}.cli"]
        self.caches = _lru_caches(package)

    def _clear_caches(self) -> None:
        for cache in self.caches.values():
            cache.cache_clear()

    def _call(self, args) -> tuple[int, str, str]:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = self.cli.main(list(args))
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
            except Exception:  # a crash is a failed job, as in a subprocess
                traceback.print_exc()
                code = 1
        return code, out.getvalue(), err.getvalue()

    def run_pass(self, jobs, workdir: str, tracer: Tracer | None):
        """One pass over the jobs: (wall seconds, per-job results, cache counts).

        A job's result is (job, exit code, stdout, stderr, wall seconds)."""
        cache_counts: Counter = Counter()
        results = []
        wall = 0.0
        here = os.getcwd()
        os.chdir(workdir)
        try:
            for job in jobs:
                self._clear_caches()
                if tracer is not None:
                    tracer.job = job.name
                start = time.perf_counter()
                code, out, err = self._call(job.args)
                elapsed = time.perf_counter() - start
                wall += elapsed
                results.append((job, code, out, err, elapsed))
                for name, cache in self.caches.items():
                    info = cache.cache_info()
                    cache_counts[f"cache.{name}.hits"] += info.hits
                    cache_counts[f"cache.{name}.misses"] += info.misses
        finally:
            os.chdir(here)
            self._clear_caches()
        return wall, results, cache_counts

    def dedup7(self) -> tuple[float, int]:
        """Seconds and class count of a direct cold call of the order-7 dedup
        enumerator, which no CLI path reaches."""
        self._clear_caches()
        enumerate_graphs = sys.modules[f"{self.package}.catalog"].enumerate_graphs
        start = time.perf_counter()
        count = sum(1 for _ in enumerate_graphs(7, dedup=True))
        elapsed = time.perf_counter() - start
        self._clear_caches()
        return elapsed, count


def layer_metrics(self_times: list[dict], counts: Counter, cache_counts: Counter,
                  import_s: float, dedup7: list[float], untraced: list[float],
                  traced: list[float]) -> dict[str, float]:
    """Every per-layer metric: medians of self time over traced passes, counts of one pass."""
    metrics: dict[str, float] = {}
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = median([t.get(layer, 0.0) for t in self_times])
        metrics[f"{layer}.calls"] = counts.get(f"{layer}.calls", 0)
    for layer, (count_name, _) in RESULT_COUNTS.items():
        metrics[f"{layer}.{count_name}"] = counts.get(f"{layer}.{count_name}", 0)
    for prefix, cache in HIT_RATIOS.items():
        hits = cache_counts.get(f"cache.{cache}.hits", 0)
        total = hits + cache_counts.get(f"cache.{cache}.misses", 0)
        metrics[f"{prefix}.hit_ratio"] = hits / total if total else 0.0
    metrics["cli.import_s"] = import_s
    metrics["catalog.dedup7_s"] = median(dedup7) if dedup7 else 0.0
    # passes run in pairs, so each difference compares neighbours in time
    metrics["trace.overhead_s"] = median([t - u for t, u in zip(traced, untraced)])
    base = median(untraced)
    metrics["trace.overhead_frac"] = metrics["trace.overhead_s"] / base if base else 0.0
    return metrics


def solver_shares(metrics: dict[str, float]) -> dict[str, float]:
    """Each solver's share of the three solvers' summed self time."""
    solvers = ("domination.gamma_r2", "domination.gamma_roman", "domination.all_min_2rdf")
    total = sum(metrics[f"{s}.self_s"] for s in solvers)
    return {s: round(metrics[f"{s}.self_s"] / total, 4) if total else 0.0 for s in solvers}


def unit_of(metric: str) -> str:
    if metric.endswith(("_s", ".self_s")):
        return "s"
    if metric.endswith(("_ratio", "_frac")):
        return "ratio"
    return "count"
