"""Seeded inputs and fixed job lists for the three benchmark workloads.

A workload is a list of jobs; each job is the argument list of one
``stresslayout`` command line, run in-process through ``cli.main``.  The
graph sizes of every workload are fixed, so the amount of work per job
list does not depend on the seed; the seed only chooses vertex labels,
random chords, layout seeds and the bench base seed.  Graph files are
written in both supported formats (Matrix Market and edge list).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

SGD_ITERS = 15

# paper_grid: the paper's algorithm x initializer grid and the hybrid
# self-initialization sweep, as ``stresslayout bench`` / ``hybrid`` run them.
PAPER_SPECS = ("path:100", "cycle:100", "grid:10,10", "grid:2,50")
PAPER_GRAPHS = (("path_100", 100), ("cycle_100", 100), ("grid_10x10", 100), ("grid_2x50", 100))
PAPER_INITS = ("random", "cmds", "pivot")
PAPER_REPS = 1
HYBRID_SPEC = "grid:10,10"
HYBRID_GRAPH = ("grid_10x10", 100)
HYBRID_KS = (0, 1, 7)
HYBRID_REPS = 3


@dataclass(frozen=True)
class Job:
    """One ``cli.main`` call and what its outputs must look like."""

    name: str
    kind: str  # "layout", "bench" or "hybrid"
    argv: tuple[str, ...]
    outputs: tuple[Path, ...]  # files the job must write, hashed in order
    vertices: tuple[tuple[str, int], ...]  # (graph name in the CSVs, vertex count)
    algorithm: str | None = None  # layout jobs only


def grid_edges(rows: int, cols: int) -> list[tuple[int, int]]:
    edges = []
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            if c + 1 < cols:
                edges.append((v, v + 1))
            if r + 1 < rows:
                edges.append((v, v + cols))
    return edges


def cycle_edges(n: int) -> list[tuple[int, int]]:
    return [(i, (i + 1) % n) for i in range(n)]


def sparse_edges(n: int, rng: random.Random) -> list[tuple[int, int]]:
    """A random recursive tree plus n // 4 distinct chords (connected)."""
    edges = {(rng.randrange(v), v) for v in range(1, n)}
    while len(edges) < n - 1 + n // 4:
        i, j = rng.sample(range(n), 2)
        edges.add((min(i, j), max(i, j)))
    return sorted(edges)


def shuffled(n: int, edges, rng: random.Random) -> list[tuple[int, int]]:
    """Relabel vertices by a random permutation and shuffle the edge order."""
    perm = list(range(n))
    rng.shuffle(perm)
    out = [(perm[i], perm[j]) for i, j in edges]
    rng.shuffle(out)
    return out


def write_graph(path: Path, n: int, edges) -> None:
    if path.suffix == ".mtx":
        lines = ["%%MatrixMarket matrix coordinate pattern symmetric", f"{n} {n} {len(edges)}"]
        lines += [f"{max(i, j) + 1} {min(i, j) + 1}" for i, j in edges]
    else:
        lines = [f"# {n} vertices, {len(edges)} edges"] + [f"{i} {j}" for i, j in edges]
    path.write_text("\n".join(lines) + "\n")


# name -> (file suffix, vertex count, edge maker).  SGD costs the same per
# pair on every graph, so sgd_mid uses n = 400 throughout: its job times
# are alike and the median job is not one particular graph.
def _families(rng: random.Random):
    return {
        "grid20x20": (".mtx", 400, lambda: grid_edges(20, 20)),
        "grid8x50": (".edges", 400, lambda: grid_edges(8, 50)),
        "grid8x45": (".edges", 360, lambda: grid_edges(8, 45)),
        "grid24x25": (".mtx", 600, lambda: grid_edges(24, 25)),
        "grid12x30": (".edges", 360, lambda: grid_edges(12, 30)),
        "grid6x60": (".mtx", 360, lambda: grid_edges(6, 60)),
        "cycle400": (".edges", 400, lambda: cycle_edges(400)),
        "sparse400a": (".mtx", 400, lambda: sparse_edges(400, rng)),
        "sparse400b": (".edges", 400, lambda: sparse_edges(400, rng)),
    }


# workload -> [(graph, algorithm, initializer)]
LAYOUT_JOBS = {
    "sgd_mid": [
        ("grid20x20", "sgd", "random"),
        ("grid8x50", "sgd", "pivot"),
        ("cycle400", "sgd", "random"),
        ("sparse400a", "sgd", "pivot"),
        ("sparse400b", "sgd", "random"),
    ],
    # PivotMDS only on the squarer grids: from pivots, the sweep count on
    # an 8x45 grid ranged over 2x between seeds; from classical MDS it is
    # the same for every labelling.
    "smacof_mid": [
        ("grid20x20", "smacof", "pivot"),
        ("grid8x45", "smacof", "cmds"),
        ("grid24x25", "smacof", "cmds"),
        ("grid12x30", "smacof", "pivot"),
        ("grid6x60", "smacof", "cmds"),
    ],
}

WORKLOADS = ("sgd_mid", "smacof_mid", "paper_grid")


def make_inputs(workload: str, seed: int, workdir: Path) -> list[Job]:
    """Write the workload's input files under workdir and return its jobs.

    The same (workload, seed) always gives the same files and jobs.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    rng = random.Random(f"{workload}:{seed}")
    inputs = workdir / "inputs"
    outputs = workdir / "outputs"
    inputs.mkdir(parents=True, exist_ok=True)
    outputs.mkdir(parents=True, exist_ok=True)
    if workload == "paper_grid":
        return _paper_jobs(rng, outputs)
    families = _families(rng)
    jobs = []
    for index, (graph, algorithm, init) in enumerate(LAYOUT_JOBS[workload]):
        suffix, n, make_edges = families[graph]
        path = inputs / f"{graph}{suffix}"
        write_graph(path, n, shuffled(n, make_edges(), rng))
        name = f"{index}-{graph}-{algorithm}-{init}"
        svg, csv = outputs / f"{name}.svg", outputs / f"{name}.csv"
        argv = ["layout", str(path), "--alg", algorithm, "--init", init,
                "--seed", str(rng.randrange(2**31)), "--out", str(svg), "--trace", str(csv)]
        if algorithm == "sgd":
            argv += ["--iters", str(SGD_ITERS)]
        jobs.append(Job(name, "layout", tuple(argv), (svg, csv), ((graph, n),), algorithm))
    return jobs


def _paper_jobs(rng: random.Random, outputs: Path) -> list[Job]:
    base_seed = str(rng.randrange(10**6))
    report, traces = outputs / "bench-report.csv", outputs / "bench-traces.csv"
    bench = Job(
        "bench", "bench",
        ("bench", *PAPER_SPECS, "--inits", ",".join(PAPER_INITS), "--reps", str(PAPER_REPS),
         "--base-seed", base_seed, "--iters", str(SGD_ITERS),
         "--out", str(report), "--trace", str(traces)),
        (report, traces), PAPER_GRAPHS,
    )
    report, traces = outputs / "hybrid-report.csv", outputs / "hybrid-traces.csv"
    hybrid = Job(
        "hybrid", "hybrid",
        ("hybrid", HYBRID_SPEC, "--ks", ",".join(map(str, HYBRID_KS)),
         "--reps", str(HYBRID_REPS), "--base-seed", base_seed, "--iters", str(SGD_ITERS),
         "--out", str(report), "--trace", str(traces)),
        (report, traces), (HYBRID_GRAPH,),
    )
    return [bench, hybrid]
