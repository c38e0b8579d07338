#!/usr/bin/env python3
"""Print the wall time of each pipeline layer on fixed grids.

One markdown table: a row per layer (loading: generate plus
connected_components, BFS all-pairs distances, classical MDS, PivotMDS
with k = 100, a default 15-iteration run_sgd with its 16 stress()
calls, one SMACOF sweep, one stress() call) and a column per graph.
Each cell is the median of --repeats timed calls after one untimed
warm-up call.  The sweep and the stress() call start from the
classical-MDS layout, and the sweep's weights are built before it is
timed; run_sgd starts from random_init(n, 0).

    python3 scripts/layer_times.py
    python3 scripts/layer_times.py --graphs grid:3,3 --repeats 1

Only numpy and the package in src/ are used; nothing there imports this.
"""

import argparse
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from stresslayout import (  # noqa: E402
    PivotConfig,
    SgdConfig,
    all_pairs_shortest_paths,
    classical_mds,
    connected_components,
    pivot_mds,
    random_init,
    run_sgd,
    smacof_iteration,
    stress,
)
from stresslayout.cli import load_graph  # noqa: E402
from stresslayout.smacof import weights  # noqa: E402

GRAPHS = ("grid:10,10", "grid:30,30", "grid:40,50")


def layers(spec):
    """The vertex count and (label, zero-argument call) per layer of the graph spec names."""
    _, graph = load_graph(spec)
    dist = all_pairs_shortest_paths(graph)
    cmds = classical_mds(dist)
    wn = weights(dist)
    start = random_init(graph.n, 0)
    return graph.n, [
        ("Load (`generate` + components)",
         lambda: connected_components(load_graph(spec)[1])),
        ("BFS all-pairs distances", lambda: all_pairs_shortest_paths(graph)),
        ("`classical_mds`", lambda: classical_mds(dist)),
        ("`pivot_mds` (k = 100)", lambda: pivot_mds(graph, PivotConfig())),
        ("`run_sgd`, 15 iterations, with its 16 `stress()` calls",
         lambda: run_sgd(dist, start, SgdConfig())),
        ("One SMACOF sweep (`smacof_iteration`)", lambda: smacof_iteration(cmds, dist, wn)),
        ("One `stress()` call", lambda: stress(cmds, dist)),
    ]


def median_seconds(call, repeats: int) -> float:
    call()
    times = []
    for _ in range(repeats):
        begin = time.perf_counter()
        call()
        times.append(time.perf_counter() - begin)
    return statistics.median(times)


def show(seconds: float) -> str:
    return f"{seconds:.3g} s" if seconds >= 1.0 else f"{seconds * 1e3:.3g} ms"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--graphs", nargs="+", default=GRAPHS, help="synthetic specs")
    parser.add_argument("--repeats", type=int, default=3, help="timed calls per cell")
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be positive")
    columns = []
    for spec in args.graphs:
        n, calls = layers(spec)
        timed = [(label, median_seconds(call, args.repeats)) for label, call in calls]
        columns.append((f"n = {n} (`{spec}`)", timed))
    print("| Layer | " + " | ".join(header for header, _ in columns) + " |")
    print("|---" * (len(columns) + 1) + "|")
    for row, (label, _) in enumerate(columns[0][1]):
        print(f"| {label} | " + " | ".join(show(timed[row][1]) for _, timed in columns) + " |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
