"""Command-line front end: lay out graphs, run benchmark grids, render SVG.

Exit codes: 0 success, 1 malformed input, a graph too large for this
machine's memory or an eigensolver (--init cmds|pivot) that does not
converge, 2 disconnected input under --strict (or usage errors from
argparse), 3 I/O failure.

Inputs are files (.mtx Matrix Market, anything else edge list, override
with --format, which needs a file among the inputs) or synthetic
specifiers like ``path:100``, ``cycle:100``, ``grid:10,10``,
``complete:12`` (graphs.synthetic_spec reads them).
Every check that needs no graph runs before any graph is loaded: the
flag values, --format, and the output paths in one call per command
(layout's default names and --snapshots paths included).  Every
subcommand then loads through load_graph, which checks a specifier
against memory before generating it and a file, by its size, before
reading it, and a Matrix Market file again by the vertex count its
size line declares.  layout, bench and hybrid charge every run the same
estimate, whatever its algorithm, and check a file's run again after
parsing and reduction to its largest component; bench and hybrid check
the graphs they hold together, and info checks the distance search its
diameter needs.
"""

from __future__ import annotations

import argparse
import dataclasses
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
    connected_components,
    generate,
    largest_connected_component,
    parse_edge_list,
    parse_matrix_market,
    synthetic_spec,
)
from .initializers import PIVOTS, classical_mds, pivot_mds, random_init
from .sgd import EPS, ITERATIONS, SgdConfig, run_sgd
from .smacof import MAX_SWEEPS, SmacofConfig, run_smacof
from .svg import render_svg

# Default SGD iteration count before majorization for layout --alg hybrid.
SGD_K = 7

# peak_bytes terms besides the n x n arrays of the search and of a run.  The
# floor is the interpreter with numpy and this package (28 MiB) plus
# what any run adds on top: graph objects, SVG text, optimizer and
# stress() block scratch, and the BLAS buffers and LAPACK code the
# spectral initializers touch.  HEAP_SLACK is n x n scratch that is
# freed but stays resident, such as the masks of the checks and of the
# pair table once the C allocator serves them from its heap: on x86-64
# Linux with numpy 2.4 (OpenBLAS, two threads), layout runs on path:n
# from cmds or with smacof peaked at 1.0 to 1.25 B per entry above
# their traced peak and the interpreter, from n = 2000 to 4000.  A
# layout run on grid:3,3 peaks at 36.5 MiB, and layout grid:40,50
# --iters 3 at 62.3-63.2 MiB (sgd) and 63.5-63.7 MiB (smacof) against an
# estimate of 87.9 for both.
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
# VERTEX_BYTES is the same peak per vertex without edges, which only a
# Matrix Market size line can declare: parsing and connected_components
# on 200 000 and 1 000 000 isolated vertices grew the peak RSS by 157
# and 153 B per vertex.
MIB = 2**20
RUN_FLOOR = 41 * MIB
HEAP_SLACK = 2
EDGE_BYTES = 310
VERTEX_BYTES = 160


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
    """argparse type: one or more comma-separated integers, each at least low;
    an empty item ("", "1,,3" or "1,") is refused.

    argparse prefixes the error with the flag's name and exits 2.
    """
    def parse(text: str) -> list[int]:
        try:
            values = [int(tok) for tok in text.split(",")]
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

    The report needs the smacof x cmds reference cell, checked after the
    cells' names and before any graph loads.  The graphs load in order,
    each checked against memory as it loads (_load_connected), so an
    oversized input stops the campaign before the inputs after it load
    and before any cell runs.  Once all are loaded, check_campaign
    charges the graphs the campaign holds together, before any cell runs.
    """
    _check_output_dirs({"--out": args.out, "--trace": args.trace})
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
    if "smacof" not in algorithms or "cmds" not in initializers:
        raise ValueError("the report needs the smacof x cmds reference cell in --algs/--inits")
    graphs = tuple(_load_connected(spec, args.format, args.strict) for spec in specs)
    check_campaign(graphs)
    return dataclasses.replace(config, graphs=graphs)


def peak_bytes(n: int, m: int, phase: str | None = None) -> int:
    """Estimated peak memory of loading a graph of n vertices and m edges
    and, given a phase, of that phase on it, in bytes: "search" is the
    distance search alone, as info's diameter runs it, and "run" is one
    run of any algorithm.

    Loading costs the run floor plus EDGE_BYTES per edge; the loaded
    Graph itself keeps 16 B per edge and 8 per vertex.  A phase adds
    n x n bytes plus HEAP_SLACK, with w the bytes of a hop count below n
    (1 up to n = 256, else 2):
    - the search holds the int32 buffer of all_pairs_shortest_paths and
      the narrow matrix it returns (4 + w per entry); its block scratch
      and the checks' masks come at other times and are smaller;
    - a run is charged classical MDS, which any run may start from: the
      matrix and its squared float64 copy (w + 8).  For any w <= 4 its
      other two peaks cannot win, since its search (4 + w) and its pair
      table beside the matrix and the boolean mask that builds the table
      ((8 + w) / 2 + 1 + w) are both smaller; the majorization sweep
      reads the matrix a block of rows at a time and adds no n x n term.
    A campaign frees each graph's arrays before the next graph's search,
    so one graph's estimate bounds its runs; check_campaign adds the
    graphs a campaign holds.
    """
    width = np.min_scalar_type(max(n - 1, 0)).itemsize
    per_entry = {None: 0, "search": 4 + width + HEAP_SLACK, "run": 8 + width + HEAP_SLACK}[phase]
    return RUN_FLOOR + EDGE_BYTES * m + per_entry * n * n


def memory_limit() -> int | None:
    """Physical memory in bytes, or None where the OS does not report it.

    Total, not currently free, memory: free memory leaves out reclaimable
    page cache and moves with the machine's momentary load.
    """
    try:
        return os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, ValueError, OSError):  # no sysconf, or no such name
        return None


def check_memory(name: str, n: int, m: int, phase: str | None = None) -> None:
    """Fail fast if a graph of n vertices and m edges, with phase on it
    (peak_bytes), cannot fit in memory; with no phase, the graph alone."""
    _refuse_over_limit(f"{name}: a run on n = {n} vertices and m = {m} edges",
                       peak_bytes(n, m, phase))


def check_campaign(graphs) -> None:
    """Fail fast if a campaign's graphs, which it holds until it ends, cannot
    fit in memory beside the largest run on one of them.

    A graph holds its CSR arrays, 16 B per edge and 8 per vertex; a
    run's estimate (peak_bytes) already counts its own graph.
    """
    held = [g.indptr.nbytes + g.indices.nbytes for _, g in graphs]
    estimate, name = max((peak_bytes(g.n, g.m, "run") + sum(held) - own, name)
                         for (name, g), own in zip(graphs, held))
    _refuse_over_limit(f"{len(graphs)} input graphs held together with a run on {name}", estimate)


def _refuse_over_limit(what: str, estimate: int) -> None:
    """Raise ValueError if estimate bytes exceed physical memory; what names the need."""
    limit = memory_limit()
    if limit is not None and estimate > limit:
        raise ValueError(
            f"{what} needs about {estimate / MIB:.0f} MiB, "
            f"more than the {limit / MIB:.0f} MiB of physical memory"
        )


def _check_output_dirs(outputs: dict) -> None:
    """Refuse an output path whose parent is not a directory or that is
    itself a directory (exit 3), and two outputs at one path (exit 1),
    so that a run that cannot write all of its outputs writes none of
    them.  outputs maps each output's flag to its path, or to None where
    the command writes no such file.  Each command makes this one call
    before any graph is loaded; layout's paths include its default names
    and its --snapshots files."""
    flags = {}  # the first flag at each resolved path
    for flag, path in ((flag, Path(name)) for flag, name in outputs.items() if name):
        if not path.parent.is_dir():
            raise NotADirectoryError(f"{path}: {path.parent} is not a directory")
        if path.is_dir():
            raise IsADirectoryError(f"{path}: is a directory")
        first = flags.setdefault(path.resolve(), flag)
        if first != flag:
            raise ValueError(f"{first} and {flag} name the same file: {outputs[first]}")


def _check_format(fmt: str | None, specs) -> None:
    """Refuse --format when every input is a synthetic spec, which it would not change."""
    if fmt is not None and all(synthetic_spec(spec) is not None for spec in specs):
        raise ValueError("--format applies only to file inputs")


def _graph_name(spec: str) -> str:
    """The name load_graph gives spec's graph: a synthetic spec's name, or the file's stem."""
    synthetic = synthetic_spec(spec)
    return Path(spec).stem if synthetic is None else synthetic[0]


def load_graph(spec: str, fmt: str | None = None, phase: str | None = None) -> tuple[str, Graph]:
    """Load a graph from a file path or synthetic specifier, named by _graph_name.

    A specifier is checked against memory at the n and edge bound it
    implies, with phase on it (peak_bytes), before generate builds it.
    A file is checked before it is read, for loading alone: every edge
    takes a line of at least 4 bytes ("0 1" and a newline), so a file
    of size bytes holds at most (size + 1) // 4 edges.  A Matrix Market
    file is checked again when its size line is read, with VERTEX_BYTES
    per declared vertex added, since a size line can declare vertices
    that no edge line names.
    """
    name, synthetic = _graph_name(spec), synthetic_spec(spec)
    if synthetic is not None:
        _, family, sizes, n, m = synthetic
        check_memory(name, n, m, phase)
        return name, generate(family, *sizes)
    path = Path(spec)
    size = path.stat().st_size
    m = (size + 1) // 4
    what = f"{name}: loading a file of {size} bytes (at most m = {m} edges)"
    _refuse_over_limit(what, peak_bytes(0, m))
    text = path.read_text()
    if fmt is None:
        fmt = "mtx" if path.suffix.lower() == ".mtx" else "edges"
    if fmt == "edges":
        return name, parse_edge_list(text)
    return name, parse_matrix_market(text, lambda n: _refuse_over_limit(
        f"{what} on n = {n} declared vertices", peak_bytes(0, m) + VERTEX_BYTES * n))


def _load_connected(spec: str, fmt: str | None, strict: bool) -> tuple[str, Graph]:
    """Load, reduce to the largest connected component, require n >= 2,
    and fail fast if a run on it cannot fit in memory.

    load_graph has checked a synthetic spec's run before generating it,
    and a file's loading before reading it; the check here, after
    reduction, is the one a file's run gets.
    """
    name, graph = load_graph(spec, fmt, "run")
    components = _components(spec, graph, strict)
    if len(components) > 1:
        reduced = largest_connected_component(graph, components)
        print(
            f"warning: {spec} has {len(components)} components; "
            f"using largest with {reduced.n} of {graph.n} vertices",
            file=sys.stderr,
        )
        graph = reduced
    check_memory(name, graph.n, graph.m, "run")
    if graph.n < 2:
        raise ValueError(f"{spec}: need at least two connected vertices, got {graph.n}")
    return name, graph


def _components(spec: str, graph: Graph, strict: bool) -> list[list[int]]:
    """connected_components(graph); more than one is an error under --strict."""
    components = connected_components(graph)
    if strict and len(components) > 1:
        raise _StrictDisconnected(f"{spec}: graph has {len(components)} components (strict mode)")
    return components


def _initial(init: str, graph, dist, seed: int, pivots: int):
    if init == "random":
        return random_init(dist.n, seed)
    if init == "cmds":
        return classical_mds(dist)
    return pivot_mds(graph, pivots, seed)


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
    sgd_config = SgdConfig(iters, EPS if args.eps is None else args.eps, args.seed)
    pivots = PIVOTS if args.pivots is None else args.pivots
    if pivots < 1:
        raise ValueError(f"--pivots must be at least 1, got {pivots}")
    sgd_k = SGD_K if args.sgd_k is None else args.sgd_k
    if args.alg == "hybrid" and args.init != "random":
        raise ValueError(f"--init: --alg hybrid starts from a random layout, got {args.init}")
    if args.alg == "hybrid" and not 0 <= sgd_k <= iters:
        raise ValueError(f"--sgd-k must be in [0, {iters}] (--iters), got {sgd_k}")
    # the last iteration a run can reach: hybrid majorization runs to its own sweep cap
    last = sgd_k + MAX_SWEEPS if args.alg == "hybrid" else iters
    if args.snapshots and max(args.snapshots) > last:
        raise ValueError(f"--snapshots: each number must be at most {last}, the last "
                         f"iteration the run can reach, got {max(args.snapshots)}")
    name = _graph_name(args.input)
    out_path = Path(args.out or f"{name}.svg")
    trace_path = Path(args.trace or f"{name}.trace.csv")
    snapshots = {t: out_path.parent / f"{out_path.stem}.iter{t}{out_path.suffix}"
                 for t in sorted(set(args.snapshots or ()))}
    _check_output_dirs({"--out": args.out or out_path, "--trace": args.trace or trace_path,
                        **{f"--snapshots {t}": path for t, path in snapshots.items()}})
    _check_format(args.format, [args.input])
    _, graph = _load_connected(args.input, args.format, args.strict)
    dist = all_pairs_shortest_paths(graph)

    def snapshot(t, coords):
        if t in snapshots:
            render_svg(coords, graph, snapshots[t])

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
    unreached = [t for t in snapshots if t >= len(values)]
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
    return _write_report(run_grid(config), args)


def cmd_hybrid(args) -> int:
    SgdConfig(args.iters, args.eps)  # --iters and --eps first: each k is checked against --iters
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
        try:
            _refuse_over_limit("the distance matrix", peak_bytes(largest.n, largest.m, "search"))
        except ValueError as exc:
            print(f"diameter (largest component): not computed: {exc}")
        else:
            diameter = int(all_pairs_shortest_paths(largest).matrix.max())
            print(f"diameter (largest component): {diameter}")
        degrees = np.diff(largest.indptr)
        print(f"degree range: {degrees.min()}..{degrees.max()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
