"""Benchmark harness: seeded run grids, stress traces, deviation reports.

Runs a grid of algorithm x initializer cells, a fixed number of
repetitions per cell (run r uses seed base_seed + r), and reports each
cell's mean final stress relative to the reference cell: majorization
started from the classical-MDS layout.  Also runs the self-initializing
variant, k steps of annealed SGD from a random layout followed by
majorization to convergence.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass

import numpy as np

from .graphs import DistanceMatrix, Graph, all_pairs_shortest_paths
from .initializers import PIVOTS, classical_mds, pivot_mds, random_init
from .sgd import EPS, ITERATIONS, SgdConfig, run_sgd
from .smacof import run_smacof
from .stress import stress

# Per-step tolerance when checking that majorization traces never increase.
# The absolute floor masks arithmetic rounding on traces that bottom out at
# machine-noise stress (exactly realizable instances); for any stress above
# 1e-6 the relative bound alone decides.
MONOTONE_RTOL = 1e-9
MONOTONE_NOISE_FLOOR = 1e-15

ALGORITHMS = ("sgd", "smacof")
INITIALIZERS = ("random", "cmds", "pivot")

TRACE_HEADER = ("graph", "algorithm", "initializer", "seed", "iteration", "stress")
REPORT_HEADER = ("graph", "algorithm", "initializer", "mean_final_stress", "deviation")


@dataclass(frozen=True)
class StressTrace:
    """Stress per iteration for one run; values[0] is the initial stress.

    For majorization runs (and the majorization phase of hybrid runs,
    starting at index phase_boundary) the values must be non-increasing;
    this is checked at construction.
    """

    graph: str
    algorithm: str
    initializer: str
    seed: int
    values: tuple[float, ...]
    phase_boundary: int | None = None

    def __post_init__(self):
        if not self.values:
            raise ValueError("trace must contain at least the initial stress")
        start = None
        if self.algorithm == "smacof":
            start = 1
        elif self.algorithm == "hybrid" and self.phase_boundary is not None:
            start = self.phase_boundary
        if start is not None:
            values = self.values[start:]
            for a, b in zip(values, values[1:]):
                if b - a > max(MONOTONE_RTOL * abs(a), MONOTONE_NOISE_FLOOR):
                    raise ValueError(
                        f"majorization trace increased: {a} -> {b} in {self.run_id}"
                    )

    @property
    def run_id(self) -> str:
        return f"{self.graph}/{self.algorithm}/{self.initializer}/s{self.seed}"

    @property
    def final(self) -> float:
        return self.values[-1]


@dataclass(frozen=True)
class ExperimentConfig:
    """One benchmark campaign over a set of named graphs."""

    graphs: tuple[tuple[str, Graph], ...]
    algorithms: tuple[str, ...] = ("sgd", "smacof")
    initializers: tuple[str, ...] = ("random", "cmds")
    repetitions: int = 10
    base_seed: int = 0
    sgd_iterations: int = ITERATIONS
    sgd_eps: float = EPS

    def __post_init__(self):
        if self.repetitions < 1:
            raise ValueError("repetitions must be positive")
        if self.base_seed < 0:
            raise ValueError(f"--base-seed: seeds must be nonnegative, got {self.base_seed}")
        SgdConfig(self.sgd_iterations, self.sgd_eps)  # raises on an out-of-range value
        for kind, flag, names, known in (("algorithm", "--algs", self.algorithms, ALGORITHMS),
                                         ("initializer", "--inits", self.initializers, INITIALIZERS)):
            for name in names:
                if name not in known:
                    raise ValueError(f"unknown {kind} {name!r}; expected one of {known}")
            if len(set(names)) < len(names):  # a repeated cell would run twice under one key
                raise ValueError(f"{flag}: each {kind} may be given once, got {','.join(names)}")
        graph_names = [name for name, _ in self.graphs]
        for name in graph_names:  # two graphs under one name would share trace keys and a row
            if graph_names.count(name) > 1:
                raise ValueError(f"graph name {name!r} is given {graph_names.count(name)} times; "
                                 "each input graph needs its own name (a file is named by its stem)")


@dataclass(frozen=True)
class DeviationRow:
    graph: str
    algorithm: str
    initializer: str
    mean_final_stress: float
    deviation: float


@dataclass(frozen=True)
class DeviationReport:
    rows: tuple[DeviationRow, ...]


def run_grid(config: ExperimentConfig) -> list[StressTrace]:
    """All (graph, algorithm, initializer) cells, repetitions times each.

    Deterministic: repetition r of every cell uses seed base_seed + r, and
    cells are emitted in configuration order.
    """
    return run_hybrid(config, ())


def run_hybrid(config: ExperimentConfig, ks) -> list[StressTrace]:
    """Per graph, run_grid's cells and then, on the same distance matrix,
    hybrid_layout for each k in ks and repetition (k-major, seed
    base_seed + r), traced as initializer sgd_<k> with phase_boundary = k.

    Majorization is deterministic, so each distinct start runs once per
    graph: the smacof x cmds cell once for all its seeds, and hybrid
    k = 0, plain majorization from random_init(n, seed), takes the
    values of the smacof x random cell of its seed.
    """
    traces: list[StressTrace] = []
    seeds = range(config.base_seed, config.base_seed + config.repetitions)
    cells = [(a, i, None) for a in config.algorithms for i in config.initializers]
    cells += [("hybrid", f"sgd_{k}", k) for k in ks]
    for name, graph in config.graphs:
        dist = all_pairs_shortest_paths(graph)
        cmds_layout = classical_mds(dist) if "cmds" in config.initializers else None
        majorized = {}  # (initializer, seed, or None for cmds) -> majorization values
        for algorithm, initializer, k in cells:
            for seed in seeds:
                sgd_config = SgdConfig(config.sgd_iterations, config.sgd_eps, seed)
                start = ("random" if k == 0 else initializer, None if initializer == "cmds" else seed)
                if algorithm == "sgd":
                    x0 = _initial_layout(initializer, graph, dist, cmds_layout, seed)
                    _, values = run_sgd(dist, x0, sgd_config)
                elif start in majorized:
                    values = majorized[start]
                elif algorithm == "hybrid":
                    values = majorized[start] = hybrid_layout(dist, k, sgd_config)[1]
                else:
                    x0 = _initial_layout(initializer, graph, dist, cmds_layout, seed)
                    values = majorized[start] = run_smacof(dist, x0)[1]
                traces.append(StressTrace(graph=name, algorithm=algorithm, initializer=initializer,
                                          seed=seed, values=tuple(values), phase_boundary=k))
        del dist, cmds_layout  # freed before the next graph's search
    return traces


def _initial_layout(initializer, graph, dist, cmds_layout, seed):
    if initializer == "random":
        return random_init(dist.n, seed)
    if initializer == "cmds":
        return cmds_layout
    return pivot_mds(graph, PIVOTS, seed)


def hybrid_layout(dist: DistanceMatrix, k: int, sgd_config: SgdConfig, callback=None):
    """Random start, k SGD iterations, then majorization to convergence.

    sgd_config.seed seeds both the random start and the SGD phase.  The
    SGD phase runs the first k steps of the full schedule, so it is a
    bit-exact prefix of a plain SGD run from random_init(n, seed) with the
    same config; with k = 0 the result equals plain majorization (default
    SmacofConfig) from that random layout.  Returns (layout, values);
    values[:k+1] cover the SGD phase (index 0 = initial stress) and the
    majorization phase follows.
    """
    x0 = random_init(dist.n, sgd_config.seed)
    if k:
        x1, sgd_values = run_sgd(dist, x0, sgd_config, steps=k, callback=callback)
    else:
        x1, sgd_values = x0, [stress(x0, dist)]
    smacof_callback = None
    if callback is not None:
        smacof_callback = lambda t, layout: callback(k + t, layout)
    layout, smacof_values = run_smacof(dist, x1, callback=smacof_callback)
    return layout, list(sgd_values) + list(smacof_values[1:])


def relative_deviation(traces) -> DeviationReport:
    """Mean final stress per cell, relative to smacof x cmds on its graph.

    deviation = mean / baseline - 1; a cell whose mean equals its baseline
    (the baseline cell itself among them) is exactly 0, even when both are
    0, and any other cell over a zero baseline is inf.
    Rows are sorted by graph, then algorithm, then initializer.
    """
    cells: dict[tuple[str, str, str], list[float]] = {}
    for trace in traces:
        key = (trace.graph, trace.algorithm, trace.initializer)
        cells.setdefault(key, []).append(trace.final)
    baselines: dict[str, float] = {}
    for (graph, algorithm, initializer), finals in cells.items():
        if algorithm == "smacof" and initializer == "cmds":
            baselines[graph] = float(np.mean(finals))
    rows = []
    for key in sorted(cells):
        graph, algorithm, initializer = key
        if graph not in baselines:
            raise ValueError(f"missing smacof x cmds baseline cell for graph {graph!r}")
        mean = float(np.mean(cells[key]))
        baseline = baselines[graph]
        if mean == baseline:
            deviation = 0.0
        elif baseline == 0.0:
            deviation = math.inf
        else:
            deviation = mean / baseline - 1.0
        rows.append(
            DeviationRow(
                graph=graph,
                algorithm=algorithm,
                initializer=initializer,
                mean_final_stress=mean,
                deviation=deviation,
            )
        )
    return DeviationReport(rows=tuple(rows))


def export_csv(obj, destination) -> None:
    """Write traces or a deviation report as CSV.

    Traces expand to one row per recorded stress value (iteration 0 is the
    initial stress); reports get one row per cell.  Floats are rendered
    with full round-trip precision and rows come out in deterministic
    order, so identical inputs give identical bytes.
    """
    if isinstance(obj, DeviationReport):
        header = REPORT_HEADER
        rows = [
            (row.graph, row.algorithm, row.initializer,
             repr(row.mean_final_stress), repr(row.deviation))
            for row in obj.rows
        ]
    else:
        header = TRACE_HEADER
        rows = [
            (t.graph, t.algorithm, t.initializer, str(t.seed), str(i), repr(v))
            for t in obj
            for i, v in enumerate(t.values)
        ]
    if hasattr(destination, "write"):
        _write_rows(destination, header, rows)
    else:
        with open(destination, "w", newline="") as handle:
            _write_rows(handle, header, rows)


def _write_rows(handle, header, rows) -> None:
    writer = csv.writer(handle, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)


def parse_traces_csv(source) -> list[StressTrace]:
    """Inverse of export_csv for trace files (one run per key); phase boundaries are not stored."""
    if hasattr(source, "read"):
        text = source.read()
    else:
        with open(source, "r", newline="") as handle:
            text = handle.read()
    reader = csv.reader(io.StringIO(text))
    header = tuple(next(reader))
    if header != TRACE_HEADER:
        raise ValueError(f"unexpected trace header {header!r}")
    grouped: dict[tuple[str, str, str, int], list[float]] = {}
    for graph, algorithm, initializer, seed, iteration, value in reader:
        values = grouped.setdefault((graph, algorithm, initializer, int(seed)), [])
        if int(iteration) != len(values):
            raise ValueError(f"{graph}/{algorithm}/{initializer}/s{seed}: iteration {iteration} "
                             f"where {len(values)} should follow; one run per key")
        values.append(float(value))
    return [
        StressTrace(
            graph=graph,
            algorithm=algorithm,
            initializer=initializer,
            seed=seed,
            values=tuple(values),
        )
        for (graph, algorithm, initializer, seed), values in grouped.items()
    ]
