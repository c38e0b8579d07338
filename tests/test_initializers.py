import gc
import math
import tracemalloc

import numpy as np
import pytest

from stresslayout import (
    DisconnectedGraphError,
    DistanceMatrix,
    Graph,
    PowerIterationError,
    all_pairs_shortest_paths,
    classical_mds,
    cycle_graph,
    grid_graph,
    path_graph,
    pivot_mds,
    random_init,
    stress,
)
from stresslayout import initializers
from stresslayout.cli import main
from stresslayout.initializers import _pivots_with_rows
from helpers import (
    cmds_eigh_oracle,
    euclidean_distance_matrix,
    procrustes_error,
    random_connected_graph,
    top_eigenvalues,
)


def pairwise_lengths(layout):
    x = np.asarray(layout)
    diff = x[:, None, :] - x[None, :, :]
    return np.hypot(diff[..., 0], diff[..., 1])


class TestRandomInit:
    def test_deterministic(self):
        assert np.array_equal(random_init(20, 9), random_init(20, 9))

    def test_unit_square(self):
        x = random_init(500, 1)
        assert x.min() >= 0.0 and x.max() <= 1.0

    def test_large_sample_mean(self):
        x = random_init(10_000, 123)
        assert 0.45 <= x[:, 0].mean() <= 0.55
        assert 0.45 <= x[:, 1].mean() <= 0.55

    def test_rejects_non_positive(self):
        with pytest.raises(ValueError):
            random_init(0, 1)


class TestClassicalMds:
    def test_two_points(self):
        layout = classical_mds(DistanceMatrix([[0.0, 1.0], [1.0, 0.0]]))
        assert math.hypot(*(layout[0] - layout[1])) == pytest.approx(1.0, abs=1e-9)

    def test_collinear_triple(self):
        dist = all_pairs_shortest_paths(path_graph(3))
        layout = classical_mds(dist)
        assert np.allclose(layout[:, 0], [1.0, 0.0, -1.0], atol=1e-6)
        assert np.abs(layout[:, 1]).max() < 1e-6
        # dense eigendecomposition oracle of the same double-centered matrix
        oracle = cmds_eigh_oracle(dist)
        assert procrustes_error(layout, oracle) < 1e-7

    def test_rectangle_reproduces_distances(self):
        points = np.array([[0.0, 0.0], [3.0, 0.0], [3.0, 1.0], [0.0, 1.0]])
        dist = euclidean_distance_matrix(points)
        layout = classical_mds(dist)
        got = pairwise_lengths(layout)
        want = dist.matrix
        off = want > 0
        assert np.abs((got[off] - want[off]) / want[off]).max() < 1e-6

    def test_output_centered(self):
        dist = all_pairs_shortest_paths(grid_graph(4, 5))
        layout = classical_mds(dist)
        assert np.abs(layout.mean(axis=0)).max() < 1e-9

    def test_deterministic(self):
        dist = all_pairs_shortest_paths(cycle_graph(12))
        assert np.array_equal(classical_mds(dist), classical_mds(dist))

    def test_relabeling_equivariance(self):
        g = random_connected_graph(12, 6, 4)
        dist = all_pairs_shortest_paths(g)
        perm = np.random.default_rng(0).permutation(12)
        permuted = DistanceMatrix(dist.matrix[np.ix_(perm, perm)])
        assert procrustes_error(classical_mds(permuted), classical_mds(dist)[perm]) < 1e-7

    def test_matches_eigh_oracle_on_generic_graphs(self):
        checked = 0
        for seed in range(30):
            n = 6 + (seed * 7) % 25
            g = random_connected_graph(n, n // 2, seed)
            dist = all_pairs_shortest_paths(g)
            eigs = top_eigenvalues(dist, 3)
            # skip tied spectra: the plane embedding is only unique when
            # the second and third eigenvalues are separated
            if eigs[1] - eigs[2] < 1e-6 * eigs[0]:
                continue
            checked += 1
            assert procrustes_error(classical_mds(dist), cmds_eigh_oracle(dist)) < 1e-6
        assert checked >= 20

    def test_needs_two_vertices(self):
        with pytest.raises(ValueError):
            classical_mds(DistanceMatrix([[0.0]]))

    @pytest.mark.parametrize("a,b", [(3, 3), (4, 4), (2, 5)])
    def test_largest_eigenvalues_on_complete_bipartite(self, a, b):
        # a negative eigenvalue of B dominates in magnitude here (K3,3:
        # -2.5 against 2), which power iteration alone would pick up
        g = Graph.from_edges(a + b, [(i, a + j) for i in range(a) for j in range(b)])
        dist = all_pairs_shortest_paths(g)
        n = dist.n
        centering = np.eye(n) - np.ones((n, n)) / n
        matrix = -0.5 * centering @ dist.matrix.astype(float) ** 2 @ centering
        top = np.sort(np.linalg.eigvalsh(matrix))[::-1][:2]
        layout = classical_mds(dist)
        assert np.allclose(np.diag(layout.T @ layout), top, atol=1e-6)
        for column, eigenvalue in zip(layout.T, top):
            assert np.allclose(matrix @ column, eigenvalue * column, atol=1e-6)

    def test_non_convergence_raises(self, monkeypatch):
        monkeypatch.setattr(initializers, "POWER_MAX_ITERS", 1)
        dist = all_pairs_shortest_paths(grid_graph(3, 3))
        with pytest.raises(PowerIterationError):
            classical_mds(dist)

    def test_non_convergence_exits_1_without_traceback(self, monkeypatch, tmp_path, capsys):
        monkeypatch.setattr(initializers, "POWER_MAX_ITERS", 1)
        code = main(["layout", "grid:4,4", "--init", "cmds",
                     "--out", str(tmp_path / "g.svg"), "--trace", str(tmp_path / "g.csv")])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: eigensolver did not converge")
        assert "Traceback" not in err

    def test_near_tie_of_top_two(self, monkeypatch):
        # grid:20,20 minus one edge: the top two eigenvalues differ by
        # 3.7e-4 relative; a solver converging at their ratio needs far
        # more than 1000 steps
        monkeypatch.setattr(initializers, "POWER_MAX_ITERS", 1000)
        g = grid_graph(20, 20)
        g = Graph.from_edges(g.n, [e for e in g.edges.tolist() if e != [0, 1]])
        dist = all_pairs_shortest_paths(g)
        eigs = top_eigenvalues(dist, 2)
        assert 0 < eigs[0] - eigs[1] < 1e-3 * eigs[0]
        assert procrustes_error(classical_mds(dist), cmds_eigh_oracle(dist)) <= 1e-6

    def test_peak_memory_one_matrix(self):
        dist = all_pairs_shortest_paths(grid_graph(20, 30))
        classical_mds(dist)  # one-time allocations
        tracemalloc.start()
        try:
            classical_mds(dist)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the squared float64 matrix, double-centered in place, is the only n x n array
        assert peak <= 1.25 * 8 * dist.n**2


def choose_pivots(graph, k, seed):
    """The pivots pivot_mds takes, without their BFS rows."""
    return _pivots_with_rows(graph, k, seed)[0]


class TestChoosePivots:
    def test_full_cover(self):
        g = grid_graph(4, 4)
        pivots = choose_pivots(g, 16, seed=3)
        assert sorted(pivots) == list(range(16))

    def test_deterministic_per_seed(self):
        g = cycle_graph(9)
        assert choose_pivots(g, 4, seed=7) == choose_pivots(g, 4, seed=7)

    def test_maxmin_with_tie_to_lowest_index(self):
        # seed 11 draws vertex 0 of a 4-cycle first: farthest is 2, then
        # the remaining {1, 3} tie at distance 1 and the lower index wins
        g = cycle_graph(4)
        assert int(np.random.default_rng(11).integers(4)) == 0
        assert choose_pivots(g, 3, seed=11) == [0, 2, 1]

    def test_disconnected_raises(self):
        g = Graph.from_edges(4, [(0, 1), (2, 3)])
        with pytest.raises(DisconnectedGraphError):
            choose_pivots(g, 2, seed=0)


class TestPivotMds:
    def test_rejects_negative_seed(self):
        with pytest.raises(ValueError, match="seed must be nonnegative, got -2"):
            pivot_mds(grid_graph(3, 3), seed=-2)

    def test_path3_matches_cmds(self):
        g = path_graph(3)
        dist = all_pairs_shortest_paths(g)
        layout = pivot_mds(g, 3, 0)
        assert procrustes_error(layout, classical_mds(dist)) < 1e-6

    def test_all_pivots_equals_cmds(self):
        for seed in (0, 1, 2):
            g = random_connected_graph(14, 8, seed + 40)
            dist = all_pairs_shortest_paths(g)
            eigs = top_eigenvalues(dist, 3)
            if eigs[1] - eigs[2] < 1e-6 * eigs[0]:
                continue
            layout = pivot_mds(g, 14, seed)
            assert procrustes_error(layout, classical_mds(dist)) < 1e-6

    def test_grid_half_pivots_close_to_cmds(self):
        g = grid_graph(10, 10)
        dist = all_pairs_shortest_paths(g)
        full = classical_mds(dist)
        approx = pivot_mds(g, 50, 0)
        radius = math.sqrt(((full - full.mean(axis=0)) ** 2).sum() / g.n)
        # threshold frozen from measurement; the grid's tied spectrum leaves
        # a rotation freedom that procrustes cannot fully absorb
        assert procrustes_error(full, approx) < 0.12 * radius

    def test_deterministic(self):
        g = grid_graph(5, 5)
        a = pivot_mds(g, 10, 3)
        b = pivot_mds(g, 10, 3)
        assert np.array_equal(a, b)

    def test_oversized_k_clamped(self):
        g = path_graph(5)
        layout = pivot_mds(g, 50, 0)
        assert np.array_equal(layout, pivot_mds(g, 5, 0))

    def test_all_pivots_on_path_is_exact(self):
        # path:100 is exactly realizable on a line: the second column
        # must carry no residue of the first
        g = path_graph(100)
        dist = all_pairs_shortest_paths(g)
        for seed in (0, 1, 2):
            assert stress(pivot_mds(g, 100, seed), dist) <= 1e-20

    def test_two_points(self):
        layout = pivot_mds(path_graph(2), 2)
        assert math.hypot(*(layout[0] - layout[1])) == pytest.approx(1.0, abs=1e-9)
        assert np.abs(layout[:, 1]).max() < 1e-6

    def test_one_pivot_places_every_vertex_at_origin(self):
        layout = pivot_mds(grid_graph(4, 4), 1)
        assert np.array_equal(layout, np.zeros((16, 2)))

    def test_needs_two_vertices(self):
        with pytest.raises(ValueError):
            pivot_mds(Graph.from_edges(1, []), 1)

    def test_rejects_zero_pivots(self):
        with pytest.raises(ValueError, match="pivot count must be positive"):
            pivot_mds(grid_graph(3, 3), 0)

    def test_graph_holds_nothing_after_a_run(self):
        # the searches' row tuples die with the call: nothing it allocated stays
        pivot_mds(grid_graph(4, 4), 3, 0)  # one-time allocations
        g = grid_graph(30, 30)
        tracemalloc.start()
        try:
            pivot_mds(g, 3, 0)
            gc.collect()  # a full collection also empties the interpreter's tuple free lists
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert held < g.m
