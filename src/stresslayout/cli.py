"""Command-line front end: lay out graphs, run benchmark grids, render SVG.

Exit codes: 0 success, 1 malformed input, a graph too large for this
machine's memory or an eigensolver (--init cmds|pivot) that does not
converge, 2 disconnected input under --strict (or usage errors from
argparse), 3 I/O failure.

Inputs are files (.mtx Matrix Market, anything else edge list, override
with --format, which needs a file among the inputs) or synthetic
specifiers like ``path:100``, ``cycle:100``, ``grid:10,10``,
``complete:12`` (graphs.synthetic_spec reads them).
Every subcommand loads through load_graph, which checks a specifier
against memory before generating it and a file, by its size, before
reading it; layout, bench and hybrid check a file's run again after
parsing and reduction to its largest component.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import os
import sys
from pathlib import Path

import numpy as np

from .bench import (
    INITIALIZERS,
    ExperimentConfig,
    StressTrace,
    export_csv,
    hybrid_layout,
    relative_deviation,
    run_grid,
    run_hybrid,
)
from .graphs import (
    Graph,
    all_pairs_shortest_paths,
    bfs_hops,
    connected_components,
    generate,
    largest_connected_component,
    parse_edge_list,
    parse_matrix_market,
    synthetic_spec,
)
from .initializers import PIVOTS, PivotConfig, classical_mds, pivot_mds, random_init
from .sgd import EPS, ITERATIONS, SgdConfig, run_sgd
from .smacof import MAX_SWEEPS, SmacofConfig, run_smacof
from .svg import render_svg

# Default SGD iteration count before majorization for layout --alg hybrid.
SGD_K = 7

# peak_bytes terms besides the held arrays: the peak RSS of a run apart
# from its n x n arrays, and the scratch of all_pairs_shortest_paths as a
# share of its n x n float64 result.  That scratch peaks in the boolean
# masks DistanceMatrix validates with (n**2 bytes, 0.125 of the result);
# the block BFS before them holds a few times max(2**13, n**2 / 64) int64
# entries, under 0.1 of the result from n = 724 on and under 0.5 MiB
# below (tracemalloc: 1.13 x the result on grid:40,50).  The floor is
# the interpreter with numpy and this package (28 MiB) plus what any run
# adds on top: graph objects, SVG text, optimizer and stress() block
# scratch, and the BLAS buffers and LAPACK code the spectral initializers
# touch.  On x86-64 Linux with numpy 2.4 (OpenBLAS, two threads), a
# layout run on grid:3,3 peaks at 35.5 MiB, runs of either algorithm
# from any initializer up to n = 2000 peaked at most 40.3 MiB above
# their n x n terms, and layout grid:40,50 peaks at 117.8 MiB (sgd) and
# 148.3 MiB (smacof, --iters 3) against estimates of 123.5 and 154.0.
# EDGE_BYTES is the peak of loading a graph, per edge: the larger of
# generate and of reading and parsing a file, which holds a Python
# object per line and per pair until Graph.from_edges sorts their keys
# into the graph's 16 B per edge of CSR.  With CPython 3.11 the peak
# RSS of parsing an edge list grew by 296, 223 and 165 B per edge on
# path:200000, grid:400,400 and complete:1000 (a Matrix Market file:
# 303 and 306 on the first two), and of generate by 75, 80 and 76.
# connected_components searches transient tuples of the rows, which
# peak at 230, 173 and 96 B per edge after generate, so the term
# covers components, the reduction and info as well.
MIB = 2**20
RUN_FLOOR = 41 * MIB
APSP_TRANSIENT = 0.15
EDGE_BYTES = 310


class _StrictDisconnected(Exception):
    pass


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _StrictDisconnected as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:  # GraphFormatError, DisconnectedGraphError, PowerIterationError
        print(f"error: {exc}", file=sys.stderr)
        return 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stresslayout",
        description="Distance-based graph layout by annealed per-pair SGD and "
        "localized majorization, with a benchmarking harness.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    layout = sub.add_parser("layout", help="lay out one graph, write SVG and stress trace")
    _add_input_options(layout)
    layout.add_argument("--alg", choices=("sgd", "smacof", "hybrid"), default="sgd",
                        help="optimizer (default: %(default)s)")
    layout.add_argument("--init", choices=INITIALIZERS, default="random",
                        help="initial layout; --alg hybrid always starts random "
                        "(default: %(default)s)")
    layout.add_argument("--seed", type=int, default=0, help="run seed (default: %(default)s)")
    layout.add_argument("--iters", type=int, default=None,
                        help=f"SGD schedule length (default: {ITERATIONS}) or "
                        f"majorization sweep cap (default: {MAX_SWEEPS})")
    layout.add_argument("--eps", type=float, default=None,
                        help=f"final relative step of the SGD schedule, for --alg sgd|hybrid "
                        f"(default: {EPS})")
    layout.add_argument("--pivots", type=int, default=None,
                        help=f"at most this many pivots, for --init pivot (default: {PIVOTS})")
    layout.add_argument("--sgd-k", type=int, default=None,
                        help="SGD iterations before majorization, for --alg hybrid, "
                        f"in [0, --iters] (default: {SGD_K})")
    layout.add_argument("--snapshots", type=_int_list(1), default=None,
                        help="comma-separated iteration numbers (from 1, at most --iters; "
                        "for --alg hybrid --sgd-k plus the sweep cap) to snapshot as SVG")
    layout.add_argument("--out", default=None, help="output SVG path")
    layout.add_argument("--trace", default=None, help="output trace CSV path")
    layout.set_defaults(func=cmd_layout)

    bench = sub.add_parser("bench", help="run the algorithm x initializer grid, report deviations")
    bench.add_argument("inputs", nargs="+", help="graph files or synthetic specs")
    _add_input_flags(bench)
    _add_experiment_flags(bench)
    bench.add_argument("--algs", default="sgd,smacof", help="algorithms (default: %(default)s)")
    bench.add_argument("--inits", default="random,cmds",
                       help="initializers (default: %(default)s)")
    # None marks --iters and --eps as not given: they apply only with sgd in --algs
    bench.set_defaults(func=cmd_bench, iters=None, eps=None)

    hybrid = sub.add_parser("hybrid", help="self-initialization sweep: k SGD steps then majorization")
    _add_input_options(hybrid)
    _add_experiment_flags(hybrid)
    hybrid.add_argument("--ks", type=_int_list(0), default="0,1,3,7,15",
                        help="comma-separated SGD iteration counts, each in [0, --iters] "
                        "(default: %(default)s)")
    hybrid.set_defaults(func=cmd_hybrid)

    info = sub.add_parser("info", help="print graph statistics")
    _add_input_options(info)
    info.set_defaults(func=cmd_info)
    return parser


def _int_list(low: int):
    """argparse type: comma-separated integers, each at least low.

    argparse prefixes the error with the flag's name and exits 2.
    """
    def parse(text: str) -> list[int]:
        try:
            values = [int(tok) for tok in text.split(",") if tok]
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"expected comma-separated integers, got {text!r}") from None
        for value in values:
            if value < low:
                raise argparse.ArgumentTypeError(f"each value must be at least {low}, got {value}")
        return values

    return parse


def _add_input_flags(parser) -> None:
    parser.add_argument("--format", choices=("mtx", "edges"), default=None,
                        help="input format override (default: by extension)")
    parser.add_argument("--strict", action="store_true",
                        help="fail on disconnected input instead of reducing")


def _add_input_options(parser) -> None:
    parser.add_argument("input", help="graph file or synthetic spec like grid:10,10")
    _add_input_flags(parser)


def _add_experiment_flags(parser) -> None:
    """The flags bench and hybrid share; _experiment_config reads them."""
    parser.add_argument("--reps", type=int, default=10,
                        help="runs per cell (default: %(default)s)")
    parser.add_argument("--base-seed", type=int, default=0,
                        help="run r uses seed base+r (default: %(default)s)")
    parser.add_argument("--iters", type=int, default=ITERATIONS,
                        help=f"SGD schedule length (default: {ITERATIONS})")
    parser.add_argument("--eps", type=float, default=EPS,
                        help=f"final relative SGD step (default: {EPS})")
    parser.add_argument("--out", default=None, help="report CSV path (default: stdout)")
    parser.add_argument("--trace", default=None, help="full traces CSV path")


def _experiment_config(args, specs, algorithms, initializers) -> ExperimentConfig:
    """The campaign the flags describe, validated before any graph is loaded.

    The graphs load in order, each checked against memory as it loads
    (_load_connected), so an oversized input stops the campaign before
    the inputs after it load and before any cell runs.
    """
    config = ExperimentConfig(
        graphs=(),
        algorithms=algorithms,
        initializers=initializers,
        repetitions=args.reps,
        base_seed=args.base_seed,
        sgd_iterations=ITERATIONS if args.iters is None else args.iters,
        sgd_eps=EPS if args.eps is None else args.eps,
    )
    _check_format(args.format, specs)
    graphs = tuple(_load_connected(spec, args.format, args.strict, algorithms) for spec in specs)
    return dataclasses.replace(config, graphs=graphs)


def peak_bytes(n: int, m: int, algorithm: str | None = None) -> int:
    """Estimated peak memory of loading a graph of n vertices and m edges
    and, given an algorithm, of one run on it, in bytes.

    Loading costs the run floor plus EDGE_BYTES per edge; the loaded
    Graph itself keeps 16 B per edge and 8 per vertex.  A run adds the
    arrays it holds throughout: the distance matrix (8 n**2), its pair
    table (12 n**2: two int64 indices and one float64 target per
    unordered pair) and, for smacof and hybrid, the majorization weights
    that each run_smacof call builds and drops (8 n**2), plus the scratch
    of all_pairs_shortest_paths.  A campaign frees each graph's arrays
    before the next graph's search, so one graph's estimate bounds it.
    """
    per_entry = 0
    if algorithm is not None:
        per_entry = 8 + 12 + 8 * APSP_TRANSIENT + (0 if algorithm == "sgd" else 8)
    return RUN_FLOOR + EDGE_BYTES * m + math.ceil(per_entry * n * n)


def memory_limit() -> int | None:
    """Physical memory in bytes, or None where the OS does not report it.

    Total, not currently free, memory: free memory leaves out reclaimable
    page cache and moves with the machine's momentary load.
    """
    try:
        return os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, ValueError, OSError):  # no sysconf, or no such name
        return None


def check_memory(name: str, n: int, m: int, algorithms=()) -> None:
    """Fail fast if a graph of n vertices and m edges, with a run of each of
    algorithms on it, cannot fit in memory; with no algorithms, the graph alone."""
    estimate = max(peak_bytes(n, m, algorithm) for algorithm in algorithms or (None,))
    _refuse_over_limit(f"{name}: a run on n = {n} vertices and m = {m} edges", estimate)


def _refuse_over_limit(what: str, estimate: int) -> None:
    """Raise ValueError if estimate bytes exceed physical memory; what names the need."""
    limit = memory_limit()
    if limit is not None and estimate > limit:
        raise ValueError(
            f"{what} needs about {estimate / MIB:.0f} MiB, "
            f"more than the {limit / MIB:.0f} MiB of physical memory"
        )


def _check_format(fmt: str | None, specs) -> None:
    """Refuse --format when every input is a synthetic spec, which it would not change."""
    if fmt is not None and all(synthetic_spec(spec) is not None for spec in specs):
        raise ValueError("--format applies only to file inputs")


def load_graph(spec: str, fmt: str | None = None, algorithms=()) -> tuple[str, Graph]:
    """Load a graph from a file path or synthetic specifier.

    A specifier is checked against memory at the n and edge bound it
    implies, for a run of each of algorithms, before generate builds it.
    A file is checked before it is read, for loading alone: every edge
    takes a line of at least 4 bytes ("0 1" and a newline), so a file
    of size bytes holds at most (size + 1) // 4 edges.
    """
    synthetic = synthetic_spec(spec)
    if synthetic is not None:
        name, family, sizes, n, m = synthetic
        check_memory(name, n, m, algorithms)
        return name, generate(family, *sizes)
    path = Path(spec)
    size = path.stat().st_size
    m = (size + 1) // 4
    _refuse_over_limit(f"{path.stem}: loading a file of {size} bytes (at most m = {m} edges)",
                       peak_bytes(0, m))
    text = path.read_text()
    if fmt is None:
        fmt = "mtx" if path.suffix.lower() == ".mtx" else "edges"
    graph = parse_matrix_market(text) if fmt == "mtx" else parse_edge_list(text)
    return path.stem, graph


def _load_connected(spec: str, fmt: str | None, strict: bool, algorithms) -> tuple[str, Graph]:
    """Load, reduce to the largest connected component, require n >= 2,
    and fail fast if a run on it cannot fit in memory.

    load_graph has checked a synthetic spec's run before generating it,
    and a file's loading before reading it; the check here, after
    reduction, is the one a file's run gets.
    """
    name, graph = load_graph(spec, fmt, algorithms)
    components = _components(spec, graph, strict)
    if len(components) > 1:
        reduced = largest_connected_component(graph, components)
        print(
            f"warning: {spec} has {len(components)} components; "
            f"using largest with {reduced.n} of {graph.n} vertices",
            file=sys.stderr,
        )
        graph = reduced
    check_memory(name, graph.n, graph.m, algorithms)
    if graph.n < 2:
        raise ValueError(f"{spec}: need at least two connected vertices, got {graph.n}")
    return name, graph


def _components(spec: str, graph: Graph, strict: bool) -> list[list[int]]:
    """connected_components(graph); more than one is an error under --strict."""
    components = connected_components(graph)
    if strict and len(components) > 1:
        raise _StrictDisconnected(f"{spec}: graph has {len(components)} components (strict mode)")
    return components


def _initial(init: str, graph, dist, seed: int, pivots: PivotConfig):
    if init == "random":
        return random_init(dist.n, seed)
    if init == "cmds":
        return classical_mds(dist)
    return pivot_mds(graph, pivots)


def cmd_layout(args) -> int:
    if args.eps is not None and args.alg == "smacof":
        raise ValueError("--eps applies only with --alg sgd|hybrid")
    if args.pivots is not None and args.init != "pivot":
        raise ValueError("--pivots applies only with --init pivot")
    if args.sgd_k is not None and args.alg != "hybrid":
        raise ValueError("--sgd-k applies only with --alg hybrid")
    iters = args.iters
    if iters is None:
        iters = MAX_SWEEPS if args.alg == "smacof" else ITERATIONS
    if iters < 1:
        raise ValueError(f"--iters must be at least 1, got {iters}")
    if args.seed < 0:
        raise ValueError(f"--seed must be nonnegative, got {args.seed}")
    sgd_config = SgdConfig(iters, EPS if args.eps is None else args.eps, args.seed)
    pivots = PivotConfig(k=PIVOTS if args.pivots is None else args.pivots, seed=args.seed)
    sgd_k = SGD_K if args.sgd_k is None else args.sgd_k
    if args.alg == "hybrid" and args.init != "random":
        raise ValueError(f"--init: --alg hybrid starts from a random layout, got {args.init}")
    if args.alg == "hybrid" and not 0 <= sgd_k <= iters:
        raise ValueError(f"--sgd-k must be in [0, {iters}] (--iters), got {sgd_k}")
    snapshots = set(args.snapshots or ())
    # the last iteration a run can reach: hybrid majorization runs to its own sweep cap
    last = sgd_k + MAX_SWEEPS if args.alg == "hybrid" else iters
    if snapshots and max(snapshots) > last:
        raise ValueError(f"--snapshots: each number must be at most {last}, the last "
                         f"iteration the run can reach, got {max(snapshots)}")
    _check_format(args.format, [args.input])
    name, graph = _load_connected(args.input, args.format, args.strict, (args.alg,))
    dist = all_pairs_shortest_paths(graph)
    out_path = Path(args.out) if args.out else Path(f"{name}.svg")
    trace_path = Path(args.trace) if args.trace else Path(f"{name}.trace.csv")

    def snapshot(t, coords):
        if t in snapshots:
            target = out_path.with_name(f"{out_path.stem}.iter{t}{out_path.suffix}")
            render_svg(coords, graph, target)

    callback = snapshot if snapshots else None
    initializer = args.init
    if args.alg == "smacof":
        x0 = _initial(args.init, graph, dist, args.seed, pivots)
        layout, values = run_smacof(dist, x0, SmacofConfig(iters), callback=callback)
    elif args.alg == "sgd":
        x0 = _initial(args.init, graph, dist, args.seed, pivots)
        layout, values = run_sgd(dist, x0, sgd_config, callback=callback)
    else:
        layout, values = hybrid_layout(dist, sgd_k, sgd_config, callback=callback)
        initializer = f"sgd_{sgd_k}"
    trace = StressTrace(
        graph=name,
        algorithm=args.alg,
        initializer=initializer,
        seed=args.seed,
        values=tuple(values),
        phase_boundary=sgd_k if args.alg == "hybrid" else None,
    )
    render_svg(layout, graph, out_path)
    export_csv([trace], trace_path)
    unreached = sorted(t for t in snapshots if t >= len(values))
    if unreached:
        print(f"warning: --snapshots {','.join(map(str, unreached))} not rendered: "
              f"the run stopped after {len(values) - 1} iterations", file=sys.stderr)
    print(f"{name}: final stress {trace.final!r} after {len(values) - 1} iterations")
    print(f"wrote {out_path} and {trace_path}")
    return 0


def cmd_bench(args) -> int:
    algorithms = tuple(args.algs.split(","))
    for flag, value in (("--iters", args.iters), ("--eps", args.eps)):
        if value is not None and "sgd" not in algorithms:
            raise ValueError(f"{flag} applies only with sgd in --algs")
    config = _experiment_config(args, args.inputs, algorithms, tuple(args.inits.split(",")))
    if "smacof" not in config.algorithms or "cmds" not in config.initializers:
        raise ValueError("the report needs the smacof x cmds reference cell in --algs/--inits")
    return _write_report(run_grid(config), args)


def cmd_hybrid(args) -> int:
    for k in args.ks:
        if k > args.iters:
            raise ValueError(f"--ks: each k must be in [0, {args.iters}] (--iters), got {k}")
    if len(set(args.ks)) < len(args.ks):
        raise ValueError(f"--ks: each k may be given once, got {','.join(map(str, args.ks))}")
    config = _experiment_config(args, [args.input], ("smacof",), ("cmds", "random"))
    return _write_report(run_hybrid(config, args.ks), args)


def _write_report(traces, args) -> int:
    """Deviation report to --out (default stdout), full traces to --trace."""
    report = relative_deviation(traces)
    if args.trace:
        export_csv(traces, args.trace)
    export_csv(report, args.out or sys.stdout)
    return 0


def cmd_info(args) -> int:
    _check_format(args.format, [args.input])
    name, graph = load_graph(args.input, args.format)
    components = _components(args.input, graph, args.strict)
    print(f"graph: {name}")
    print(f"vertices: {graph.n}")
    print(f"edges: {graph.m}")
    print(f"components: {len(components)}")
    if graph.n == 0:
        return 0
    largest = largest_connected_component(graph, components)
    print(f"largest component: {largest.n} vertices, {largest.m} edges")
    if largest.n >= 2:
        # one BFS per source, holding one row at a time instead of the n x n matrix
        diameter = max(max(bfs_hops(largest, s)) for s in range(largest.n))
        print(f"diameter (largest component): {diameter}")
        degrees = np.diff(largest.indptr)
        print(f"degree range: {degrees.min()}..{degrees.max()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
