"""Acceptance suite: one test per exit criterion, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the PASS/FAIL
line and the measured numbers for every criterion.

Instances: path(100), cycle(100), the 10x10 grid, plus the benchmark
matrices 1138_bus / dwt_1005 when tests/data/<name>.mtx is present (see
scripts/fetch_benchmarks.py; they are not bundled).

Comparative criteria share one protocol: default solver configurations,
10 repetitions, repetition r seeded with r.  Three clauses are expected to
fail on the bundled desk-scale instances and are left failing on purpose
rather than loosened; the comments on those tests explain the measured
behavior.
"""

import math
import time
from pathlib import Path

import numpy as np
import pytest

from stresslayout import (
    SgdConfig,
    all_pairs_shortest_paths,
    classical_mds,
    cycle_graph,
    grid_graph,
    hybrid_layout,
    largest_connected_component,
    parse_matrix_market,
    path_graph,
    pivot_mds,
    random_init,
    run_sgd,
    run_smacof,
)
from stresslayout.cli import main
from stresslayout.sgd import _round
from helpers import (
    euclidean_distance_matrix,
    finite_difference_gradient,
    floyd_warshall,
    pair_update,
    procrustes_error,
    random_connected_graph,
    stress_gradient,
    top_eigenvalues,
)

DATA_DIR = Path(__file__).parent / "data"
SEEDS = range(10)
FIXTURE_NAMES = ("1138_bus", "dwt_1005")


def _report(num: int, label: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" | {detail}" if detail else ""
    print(f"\n[criterion {num}] {label}: {status}{suffix}")
    assert ok, f"criterion {num} ({label}): {detail}"


def _load_fixture(name: str):
    path = DATA_DIR / f"{name}.mtx"
    if not path.exists():
        return None
    return largest_connected_component(parse_matrix_market(path.read_text()))


@pytest.fixture(scope="session")
def graphs():
    out = {
        "path_100": path_graph(100),
        "cycle_100": cycle_graph(100),
        "grid_10x10": grid_graph(10, 10),
    }
    for name in FIXTURE_NAMES:
        fixture = _load_fixture(name)
        if fixture is not None:
            out[name] = fixture
    return out


@pytest.fixture(scope="session")
def cells(graphs):
    """Final stresses per instance and cell: the shared comparison protocol."""
    data = {}
    for name, graph in graphs.items():
        dist = all_pairs_shortest_paths(graph)
        cmds = classical_mds(dist)
        # the smacof x cmds pipeline consumes no seed: one run covers all
        # repetitions bit-for-bit
        baseline = run_smacof(dist, cmds)[1]
        smacof_random = [run_smacof(dist, random_init(graph.n, s))[1] for s in SEEDS]
        data[name] = {
            # whole majorization traces, for criterion 1's step-by-step check
            "smacof_traces": [baseline, *smacof_random],
            "baseline": baseline[-1],
            "smacof_random": [trace[-1] for trace in smacof_random],
            "sgd_random": [
                run_sgd(dist, random_init(graph.n, s), SgdConfig(seed=s))[1][-1]
                for s in SEEDS
            ],
            "sgd_cmds": [
                run_sgd(dist, cmds, SgdConfig(seed=s))[1][-1] for s in SEEDS
            ],
            "hybrid": {
                k: [
                    hybrid_layout(dist, k, SgdConfig(seed=s))[1][-1]
                    for s in SEEDS
                ]
                for k in (1, 7)
            },
        }
    return data


def test_criterion_1_monotone_majorization(cells):
    # The 1e-9 relative bound is paired with a 1e-15 absolute noise floor:
    # on path_100 the cmds-initialized trace bottoms out near 1e-28 where
    # the computed stress wobbles by arithmetic rounding, and a purely
    # relative comparison would measure that noise rather than descent.
    # Above stress 1e-6 the relative bound alone decides, unchanged.
    # The traces are the cells fixture's runs: the cmds run (seed-free, it
    # stands for the 10 repetitions) and one run per seed from random.
    started = time.perf_counter()
    violations = 0
    runs = 0
    for cell in cells.values():
        for trace in cell["smacof_traces"]:
            runs += 1
            for a, b in zip(trace, trace[1:]):
                if b - a > max(1e-9 * abs(a), 1e-15):
                    violations += 1
    elapsed = time.perf_counter() - started
    _report(
        1,
        "monotone majorization",
        violations == 0,
        f"{runs} runs, {violations} increasing steps, {elapsed:.1f}s",
    )


def test_criterion_2_random_init_penalty_for_smacof(cells):
    # Expected to FAIL on grid_10x10: sequential localized majorization
    # with full d**-2 weights unfolds random starts on the square grid
    # (measured deviation ~ +1e-6, not the required >= +5%).  The penalty
    # is real on elongated instances of the same size, see
    # test_bench.TestRelativeDeviation::test_random_penalty_on_elongated_grid.
    details = []
    ok = True
    for name in ("grid_10x10",) + FIXTURE_NAMES:
        if name not in cells:
            continue
        cell = cells[name]
        base = cell["baseline"]
        smacof_dev = float(np.mean(cell["smacof_random"])) / base - 1.0
        sgd_dev = float(np.mean(cell["sgd_random"])) / base - 1.0
        clause = smacof_dev >= 0.05 and abs(sgd_dev) <= 0.02
        ok = ok and clause
        details.append(
            f"{name}: smacof/random {smacof_dev:+.3%} (need >= +5%), "
            f"sgd/random {sgd_dev:+.3%} (need |dev| <= 2%)"
        )
    _report(2, "random-init penalty for majorization", ok, "; ".join(details))


def test_criterion_3_sgd_init_indifference(cells):
    # Expected to FAIL on path_100: the path's hop distances are exactly
    # realizable on a line, so the majorization-from-cmds baseline is
    # about 1e-28 (2.45e-28 after 8 sweeps) and any relative comparison against it is
    # astronomically large.  The criterion holds on instances with meaningfully positive
    # baseline stress (cycle_100, grid_10x10).
    details = []
    ok = True
    for name, cell in cells.items():
        base = cell["baseline"]
        gap = abs(float(np.mean(cell["sgd_random"])) - float(np.mean(cell["sgd_cmds"])))
        ratio = gap / base
        ok = ok and ratio <= 0.02
        details.append(f"{name}: |random-cmds|/baseline = {ratio:.3g}")
    _report(3, "SGD init-indifference (<= 2%)", ok, "; ".join(details))


def test_criterion_4_self_initialization(cells):
    # The k=7 clause is expected to FAIL on path_100 for the same reason
    # as criterion 3: the baseline there is about 1e-28, while an annealed run
    # from a random start bottoms out around 1e-2.  The k=1 clause holds
    # everywhere.
    details = []
    ok = True
    for name, cell in cells.items():
        base = cell["baseline"]
        beats_random = float(np.mean(cell["hybrid"][1])) < float(
            np.mean(cell["smacof_random"])
        )
        worst_k7 = max(cell["hybrid"][7])
        k7_within = worst_k7 <= 1.02 * base
        ok = ok and beats_random and k7_within
        details.append(
            f"{name}: k=1 beats smacof/random: {beats_random}, "
            f"max k=7 / baseline = {worst_k7 / base:.3g} (need <= 1.02)"
        )
    _report(4, "self-initialization (k=1 and k=7)", ok, "; ".join(details))


def test_criterion_5_gradient_matches_finite_differences():
    rng = np.random.default_rng(20240501)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(3, 21))
        graph = random_connected_graph(n, int(rng.integers(0, n)), int(rng.integers(1 << 31)))
        dist = all_pairs_shortest_paths(graph)
        layout = rng.random((n, 2)) * 4.0
        analytic = stress_gradient(layout, dist)
        numeric = finite_difference_gradient(layout, dist, h=1e-6)
        worst = max(worst, float(np.abs(analytic - numeric).max()))
    _report(
        5,
        "analytic gradient vs central differences",
        worst < 1e-5,
        f"worst component error {worst:.3g} over 100 instances",
    )


def test_criterion_6_pair_update_exactness():
    # the oracle pair_update, and the same pair as one round of run_sgd (_round)
    rng = np.random.default_rng(77)
    unused = np.random.default_rng(0)  # _round draws only for coincident pairs
    worst_rel = 0.0
    worst_mid = 0.0
    worst_round = 0.0
    for _ in range(1000):
        p = rng.normal(scale=5.0, size=2)
        q = rng.normal(scale=5.0, size=2)
        if math.hypot(*(p - q)) < 1e-9:
            continue
        d = float(rng.uniform(0.5, 30.0))
        a, b = pair_update(p, q, d, mu=1.0)
        z = np.array([complex(*p), complex(*q)])
        _round(z, np.array([0]), np.array([1]), np.array([d]), np.array([0.5]), unused)
        rounded = np.column_stack((z.real, z.imag))
        for a_k, b_k in ((a, b), rounded):
            worst_rel = max(worst_rel, abs(math.hypot(*(a_k - b_k)) - d) / d)
            worst_mid = max(worst_mid, float(np.abs((a_k + b_k) / 2 - (p + q) / 2).max()))
        worst_round = max(worst_round, float(np.abs(rounded - [a, b]).max()))
    _report(
        6,
        "mu=1 pair update exactness",
        worst_rel <= 1e-12 and worst_mid <= 1e-12 and worst_round <= 1e-12,
        f"worst distance error {worst_rel:.3g} rel, worst midpoint drift {worst_mid:.3g}, "
        f"worst _round vs pair_update {worst_round:.3g}",
    )


def test_criterion_7_cmds_oracle_equivalence():
    # exactly-realizable sets
    collinear = classical_mds(all_pairs_shortest_paths(path_graph(3)))
    collinear_ok = (
        np.allclose(collinear[:, 0], [1.0, 0.0, -1.0], atol=1e-6)
        and np.abs(collinear[:, 1]).max() < 1e-6
    )

    square = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    dist = euclidean_distance_matrix(square)
    embedded = classical_mds(dist)
    diff = embedded[:, None, :] - embedded[None, :, :]
    lengths = np.hypot(diff[..., 0], diff[..., 1])
    off = dist.matrix > 0
    square_err = float(np.abs((lengths[off] - dist.matrix[off]) / dist.matrix[off]).max())
    square_ok = square_err < 1e-6

    # PivotMDS with all vertices as pivots must reproduce classical MDS.
    # Instances with exactly tied second/third eigenvalues are skipped:
    # there the plane embedding is not unique (any basis of the tied
    # eigenspace is valid), so no two implementations need to agree.
    worst = 0.0
    checked = 0
    seed = 0
    while checked < 50:
        seed += 1
        rng = np.random.default_rng(seed)
        n = int(rng.integers(4, 51))
        graph = random_connected_graph(n, int(rng.integers(0, n)), seed)
        dmat = all_pairs_shortest_paths(graph)
        eigs = top_eigenvalues(dmat, 3)
        if eigs[1] - eigs[2] < 1e-6 * eigs[0]:
            continue
        checked += 1
        full = classical_mds(dmat)
        approx = pivot_mds(graph, n, seed)
        worst = max(worst, procrustes_error(full, approx))
    pivot_ok = worst <= 1e-6
    _report(
        7,
        "classical MDS oracle equivalence",
        collinear_ok and square_ok and pivot_ok,
        f"collinear {collinear_ok}, square rel err {square_err:.2g}, "
        f"worst k=n procrustes {worst:.2g} over {checked} graphs",
    )


def test_criterion_8_bfs_matches_floyd_warshall():
    mismatches = 0
    for seed in range(50):
        rng = np.random.default_rng(1000 + seed)
        n = int(rng.integers(2, 51))
        graph = random_connected_graph(n, int(rng.integers(0, n)), seed)
        if not np.array_equal(
            all_pairs_shortest_paths(graph).matrix, floyd_warshall(graph)
        ):
            mismatches += 1
    _report(
        8,
        "BFS distances equal Floyd-Warshall",
        mismatches == 0,
        f"{mismatches} mismatching graphs out of 50",
    )


def test_criterion_9_pipeline_determinism(tmp_path):
    commands = {
        "layout_sgd": ["layout", "grid:5,5", "--alg", "sgd", "--seed", "3"],
        "layout_smacof": ["layout", "grid:5,5", "--alg", "smacof", "--init", "cmds"],
        "layout_hybrid": ["layout", "cycle:12", "--alg", "hybrid", "--sgd-k", "2",
                          "--seed", "1"],
        "bench": ["bench", "path:12", "--reps", "3", "--base-seed", "5"],
        "hybrid": ["hybrid", "cycle:10", "--ks", "0,2", "--reps", "2"],
    }
    identical = True
    details = []
    for label, argv in commands.items():
        outputs = []
        for attempt in ("first", "second"):
            run_dir = tmp_path / f"{label}_{attempt}"
            run_dir.mkdir()
            extra = []
            if argv[0] == "layout":
                extra = ["--out", str(run_dir / "out.svg"),
                         "--trace", str(run_dir / "trace.csv")]
            else:
                extra = ["--out", str(run_dir / "report.csv"),
                         "--trace", str(run_dir / "traces.csv")]
            code = main(argv + extra)
            assert code == 0, f"{label} exited {code}"
            outputs.append(
                {p.name: p.read_bytes() for p in sorted(run_dir.iterdir())}
            )
        same = outputs[0] == outputs[1]
        identical = identical and same
        if not same:
            details.append(f"{label} differs")
    _report(
        9,
        "byte-identical pipeline outputs",
        identical,
        "; ".join(details) if details else f"{len(commands)} pipelines compared",
    )
