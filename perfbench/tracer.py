"""Spans and counts recorded from outside the program, by wrapping bindings.

Every public function is wrapped at each module attribute the program
looks it up through (``stresslayout.cli.run_sgd`` and
``stresslayout.bench.run_sgd`` are separate bindings of one function).
A binding that no longer exists is an error, not a zero: a refactor that
moves a call elsewhere must update ``BINDINGS`` or the traced run fails.

Spans live in memory as (name, start, end, parent, job) and are turned
into per-layer metrics when the run ends.  Self time of a span is its
duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import statistics
import time
import tracemalloc

MIB = 2.0**20

# (module, attribute, span name).  The span name's prefix is the layer.
BINDINGS = (
    ("cli", "parse_matrix_market", "graphs.load"),
    ("cli", "parse_edge_list", "graphs.load"),
    ("cli", "generate", "graphs.load"),
    ("cli", "connected_components", "graphs.load"),
    ("cli", "largest_connected_component", "graphs.load"),
    ("cli", "all_pairs_shortest_paths", "graphs.apsp"),
    ("bench", "all_pairs_shortest_paths", "graphs.apsp"),
    ("cli", "classical_mds", "initializers.cmds"),
    ("bench", "classical_mds", "initializers.cmds"),
    ("cli", "pivot_mds", "initializers.pivot"),
    ("bench", "pivot_mds", "initializers.pivot"),
    ("cli", "run_sgd", "sgd.run"),
    ("bench", "run_sgd", "sgd.run"),
    ("cli", "run_smacof", "smacof.run"),
    ("bench", "run_smacof", "smacof.run"),
    ("smacof", "smacof_iteration", "smacof.sweep"),
    ("sgd", "stress", "stress"),
    ("smacof", "stress", "stress"),
    ("bench", "stress", "stress"),
    ("cli", "run_grid", "bench.run_grid"),
    ("cli", "run_hybrid", "bench.hybrid"),
    ("cli", "hybrid_layout", "bench.hybrid"),
    ("cli", "relative_deviation", "bench.report"),
    ("cli", "export_csv", "bench.report"),
    ("cli", "render_svg", "svg.render"),
)
# Bindings that are counted, not timed: one call per BFS source.
COUNTED = (
    ("graphs", "bfs_hops", "graphs.bfs_count"),
    ("initializers", "bfs_hops", "graphs.bfs_count"),
)

ROOT = "cli.main"
OPTIMIZERS = ("sgd.run", "smacof.run")
OBSERVED = ("graphs.apsp", "sgd.run", "smacof.run", "bench.report")


class MissingBinding(RuntimeError):
    """A function the tracer must wrap is no longer where the program looks it up."""


class Tracer:
    """Wraps the bindings while installed; records spans and counts."""

    def __init__(self):
        self.spans: list[tuple] = []  # (name, start, end, parent, job)
        self.counts: dict[str, int] = {}
        self.dist_bytes = 0  # largest distance matrix built, n*n*8
        self.stress_peaks: list[int] = []  # tracemalloc peak bytes per replayed call
        self._replay: dict = {}  # job -> (stress function, args, kwargs) of its first call
        self._stack: list[int] = []
        self._job = None
        self._saved: list[tuple] = []

    # -- installation -------------------------------------------------

    def install(self) -> None:
        targets = [(wrap, importlib.import_module(f"stresslayout.{module}"), attr, label)
                   for wrap, bindings in ((self._wrap, BINDINGS), (self._counter, COUNTED))
                   for module, attr, label in bindings]
        for _, module, attr, _ in targets:
            if not callable(getattr(module, attr, None)):
                raise MissingBinding(f"{module.__name__}.{attr} is missing")
        for wrap, module, attr, label in targets:
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, wrap(original, label))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    # -- recording ----------------------------------------------------

    def job(self, job_id, call):
        """Run call() as the root span of one job."""
        self._job = job_id
        try:
            return self._span(ROOT, call, (), {})
        finally:
            self._job = None

    def _span(self, name, fn, args, kwargs):
        index = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(index)
        if name == "stress":
            self._replay.setdefault(self._job, (fn, args, kwargs))
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = (name, start, end, parent, self._job)

    def replay_stress(self) -> None:
        """Peak traced memory of each job's first stress call, called again
        with the same arguments after the timed pass, so tracemalloc's
        cost (about 10x on stress) stays out of every span."""
        for fn, args, kwargs in self._replay.values():
            tracemalloc.start()
            try:
                fn(*args, **kwargs)
                self.stress_peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        self._replay.clear()

    def _count(self, key, amount=1):
        self.counts[key] = self.counts.get(key, 0) + amount

    def _counter(self, fn, label):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self._count(label)
            return fn(*args, **kwargs)
        return counted

    def _wrap(self, fn, name):
        if name not in OBSERVED:
            @functools.wraps(fn)
            def timed(*args, **kwargs):
                return self._span(name, fn, args, kwargs)
            return timed
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def observed(*args, **kwargs):
            result = self._span(name, fn, args, kwargs)
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            self._observe(name, bound.arguments, result)
            return result
        return observed

    def _observe(self, name, arguments, result):
        """Exact work counts, taken from arguments and results."""
        if name == "graphs.apsp":
            self.dist_bytes = max(self.dist_bytes, result.n * result.n * 8)
        elif name == "sgd.run":
            n = arguments["dist"].n
            self._count("sgd.pair_updates", (len(result[1]) - 1) * n * (n - 1) // 2)
        elif name == "smacof.run":
            self._count("smacof.runs")
            if len(result[1]) - 1 >= arguments["config"].max_iterations:
                self._count("smacof.capped")
        elif name == "bench.report" and "obj" in arguments:  # export_csv
            obj = arguments["obj"]
            rows = len(obj.rows) if hasattr(obj, "rows") else sum(len(t.values) for t in obj)
            self._count("bench.csv_rows", rows)


def _durations(spans):
    return [end - start for _, start, end, _, _ in spans]


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer totals for everything the tracer recorded.

    Times are seconds summed over the recorded job list; a layer's time
    counts only its outermost spans, so nested spans of one layer are not
    counted twice.
    """
    spans, counts = tracer.spans, tracer.counts
    children: dict[int, float] = {}
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            children[parent] = children.get(parent, 0.0) + (end - start)

    def ancestors(index):
        parent = spans[index][3]
        while parent >= 0:
            yield parent
            parent = spans[parent][3]

    def outermost(name):
        return [
            i for i, span in enumerate(spans)
            if span[0] == name and all(spans[a][0] != name for a in ancestors(i))
        ]

    def total(name):
        return math.fsum(_durations(spans[i] for i in outermost(name)))

    def self_time(name):
        return math.fsum(
            spans[i][2] - spans[i][1] - children.get(i, 0.0) for i in outermost(name)
        )

    stress_all = [i for i, s in enumerate(spans) if s[0] == "stress"]
    in_optimizer = [
        i for i in stress_all if any(spans[a][0] in OPTIMIZERS for a in ancestors(i))
    ]
    optimizer_s = total("sgd.run") + total("smacof.run")
    sweeps = [s for s in spans if s[0] == "smacof.sweep"]
    sgd_self = self_time("sgd.run")
    pair_updates = counts.get("sgd.pair_updates", 0)
    return {
        "sgd.self_s": sgd_self,
        "sgd.pair_updates": pair_updates,
        "sgd.pair_updates_per_s": pair_updates / sgd_self if sgd_self else 0.0,
        "smacof.sweep_s": statistics.fmean(_durations(sweeps)) if sweeps else 0.0,
        "smacof.sweeps": len(sweeps),
        "smacof.capped_share": (
            counts.get("smacof.capped", 0) / counts["smacof.runs"]
            if "smacof.runs" in counts else 0.0
        ),
        "stress.calls": len(stress_all),
        "stress.call_s": (
            statistics.fmean(_durations(spans[i] for i in stress_all)) if stress_all else 0.0
        ),
        "stress.share": (
            math.fsum(_durations(spans[i] for i in in_optimizer)) / optimizer_s
            if optimizer_s else 0.0
        ),
        "stress.peak_mib": max(tracer.stress_peaks, default=0) / MIB,
        "graphs.load_s": total("graphs.load"),
        "graphs.apsp_s": total("graphs.apsp"),
        "graphs.bfs_count": counts.get("graphs.bfs_count", 0),
        "graphs.dist_mib": tracer.dist_bytes / MIB,
        "initializers.cmds_s": total("initializers.cmds"),
        "initializers.pivot_s": total("initializers.pivot"),
        "bench.run_grid_s": total("bench.run_grid"),
        "bench.hybrid_s": total("bench.hybrid"),
        "bench.report_s": total("bench.report"),
        "bench.csv_rows": counts.get("bench.csv_rows", 0),
        "svg.render_s": total("svg.render"),
        "cli.self_s": self_time(ROOT),
    }


# Metrics that are exact counts: they must repeat exactly between job
# lists of one run and between runs of the same code and seed.
EXACT_COUNTS = ("sgd.pair_updates", "smacof.sweeps", "stress.calls", "graphs.bfs_count",
                "bench.csv_rows")

# Spans each workload must record; zero of them means a layer was lost.
EXPECTED = {
    "sgd_mid": ("sgd.run", "stress", "graphs.apsp", "initializers.pivot", "svg.render"),
    "smacof_mid": ("smacof.run", "smacof.sweep", "stress", "graphs.apsp",
                   "initializers.cmds", "initializers.pivot", "svg.render"),
    "paper_grid": ("bench.run_grid", "bench.hybrid", "bench.report", "sgd.run",
                   "smacof.run", "smacof.sweep", "stress", "graphs.apsp",
                   "initializers.cmds", "initializers.pivot"),
}


def missing_spans(tracer: Tracer, workload: str) -> list[str]:
    seen = {span[0] for span in tracer.spans}
    return [name for name in EXPECTED[workload] if name not in seen]
