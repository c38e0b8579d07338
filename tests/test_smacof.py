import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stresslayout import (
    DistanceMatrix,
    SmacofConfig,
    all_pairs_shortest_paths,
    classical_mds,
    cycle_graph,
    grid_graph,
    path_graph,
    random_init,
    run_smacof,
    smacof_iteration,
    stress,
)
from stresslayout import smacof
from stresslayout.smacof import _JITTER_SEED, MAX_SWEEPS, REL_TOLERANCE, _inverse_rows
from helpers import random_connected_graph, reference_sweep, vertex_update

P2_DIST = all_pairs_shortest_paths(path_graph(2))


def inverse_rows(d, start, stop):
    """_inverse_rows of rows start..stop-1 of d, into buffers of their own."""
    with np.errstate(divide="ignore"):
        return _inverse_rows(d[start:stop], start, *np.empty((2, stop - start, len(d))))


class TestInverseRows:
    def test_inverse_rows_and_row_sums(self):
        # path:3: rows of 1/d with a zero diagonal, their squares and the squares' sums
        inverse, squares, totals = inverse_rows(all_pairs_shortest_paths(path_graph(3)).matrix, 0, 3)
        assert inverse.tolist() == [[0.0, 1.0, 0.5], [1.0, 0.0, 1.0], [0.5, 1.0, 0.0]]
        assert squares.tolist() == [[0.0, 1.0, 0.25], [1.0, 0.0, 1.0], [0.25, 1.0, 0.0]]
        assert totals == [1.25, 2.0, 1.25]

    @pytest.mark.parametrize("graph", [path_graph(7), grid_graph(3, 4), cycle_graph(9)])
    def test_blocks_match_whole_rows(self, graph):
        # any block of rows gives the bits of the whole, row sums included
        d = all_pairs_shortest_paths(graph).matrix
        whole = inverse_rows(d, 0, graph.n)
        assert not np.diagonal(whole[0]).any()
        assert (whole[0][~np.eye(graph.n, dtype=bool)] > 0.0).all()
        for start, stop in ((0, 1), (2, 5), (graph.n - 1, graph.n)):
            for block, expected in zip(inverse_rows(d, start, stop), whole):
                assert np.array_equal(block, expected[start:stop])
            assert inverse_rows(d, start, stop)[2] == [row.sum() for row in whole[1][start:stop]]


class TestVertexUpdate:
    def test_single_neighbor_lands_on_ray(self):
        dist = DistanceMatrix([[0.0, 2.0], [2.0, 0.0]])
        moved = vertex_update(0, [[3.0, 0.0], [0.0, 0.0]], dist)
        assert np.allclose(moved, [2.0, 0.0], atol=1e-15)

    def test_zero_stress_layout_is_fixed_point(self):
        dist = all_pairs_shortest_paths(path_graph(4))
        layout = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [3.0, 0.0]])
        for i in range(4):
            assert np.allclose(vertex_update(i, layout, dist), layout[i], atol=1e-12)

    def test_coincident_raises(self):
        dist = all_pairs_shortest_paths(path_graph(3))
        with pytest.raises(ValueError, match="coincide"):
            vertex_update(2, [[0.0, 0.0], [1.0, 0.0], [1.0, 0.0]], dist)

    def test_single_vertex_move_does_not_increase_stress(self):
        # degenerate start: vertices 1 and 2 coincide; jitter then update 2
        dist = all_pairs_shortest_paths(path_graph(3))
        layout = np.array([[0.0, 0.0], [1.0, 0.0], [1.0 + 1e-6, 1e-6]])
        before = stress(layout, dist)
        layout2 = layout.copy()
        layout2[2] = vertex_update(2, layout, dist)
        assert stress(layout2, dist) <= before


class TestSmacofIteration:
    def test_zero_stress_layout_unchanged(self):
        dist = all_pairs_shortest_paths(path_graph(4))
        layout = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [3.0, 0.0]])
        after = smacof_iteration(layout, dist)
        assert np.abs(after - layout).max() < 1e-12

    def test_single_edge_realized_after_one_sweep(self):
        after = smacof_iteration([[0.0, 0.0], [3.0, 0.0]], P2_DIST)
        # worked out by hand: vertex 0 moves to (2, 0); vertex 1, now at
        # distance 1 from it, stays put
        assert np.allclose(after, [[2.0, 0.0], [3.0, 0.0]], atol=1e-15)
        assert math.hypot(*(after[0] - after[1])) == pytest.approx(1.0, rel=1e-12)

    def test_matches_sequential_vertex_updates(self):
        dist = all_pairs_shortest_paths(cycle_graph(5))
        layout = random_init(5, 3) * 4.0
        manual = layout.copy()
        for i in range(5):
            manual[i] = vertex_update(i, manual, dist)
        assert np.array_equal(smacof_iteration(layout, dist), manual)

    def test_column_major_layout_accepted(self):
        # the sweep views rows as complex numbers, which needs C order
        dist = all_pairs_shortest_paths(grid_graph(3, 3))
        layout = random_init(9, 4)
        fortran = np.asfortranarray(layout)
        assert np.array_equal(smacof_iteration(fortran, dist), smacof_iteration(layout, dist))
        assert np.array_equal(vertex_update(4, fortran, dist), vertex_update(4, layout, dist))

    def test_coincident_points_jittered(self):
        dist = all_pairs_shortest_paths(path_graph(3))
        after = smacof_iteration([[0.5, 0.5], [0.5, 0.5], [0.5, 0.5]], dist)
        assert np.isfinite(after).all()
        lengths = [math.hypot(*(after[i] - after[j])) for i in range(3) for j in range(i)]
        assert min(lengths) > 0.0

    @given(st.integers(0, 500))
    @settings(max_examples=40, deadline=None)
    def test_stress_never_increases(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 15))
        g = random_connected_graph(n, int(rng.integers(0, n)), seed)
        dist = all_pairs_shortest_paths(g)
        layout = rng.random((n, 2)) * float(rng.uniform(0.5, 10.0))
        before = stress(layout, dist)
        after = stress(smacof_iteration(layout, dist), dist)
        assert after <= before * (1.0 + 1e-9) + 1e-12


def _reference_run_sweeps(dist, init) -> int:
    """Sweeps the run_smacof stop rule needs when every sweep is reference_sweep."""
    rng = np.random.default_rng(_JITTER_SEED)
    x = np.array(init, dtype=float)
    previous = stress(x, dist)
    for sweep in range(1, MAX_SWEEPS + 1):
        x = reference_sweep(x, dist, rng)
        current = stress(x, dist)
        if previous <= 0.0 or (previous - current) / previous < REL_TOLERANCE:
            break
        previous = current
    return sweep


class TestReferenceEquivalence:
    """The complex-coordinate sweep against the (n, 2) weighted-average oracle."""

    @pytest.mark.parametrize(
        "graph",
        [path_graph(12), cycle_graph(15), grid_graph(4, 5), random_connected_graph(20, 6, 3)],
        ids=["path", "cycle", "grid", "random"],
    )
    def test_matches_reference_sweep(self, graph):
        dist = all_pairs_shortest_paths(graph)
        for seed in range(3):
            layout = random_init(graph.n, seed) * (1.0 + 4.0 * seed)
            for _ in range(3):
                expected = reference_sweep(layout, dist, np.random.default_rng(_JITTER_SEED))
                layout = smacof_iteration(layout, dist)
                assert np.abs(layout - expected).max() <= 1e-12

    @pytest.mark.parametrize("rows,cols", [(10, 10), (20, 20)])
    def test_same_sweep_count_from_cmds(self, rows, cols):
        dist = all_pairs_shortest_paths(grid_graph(rows, cols))
        init = classical_mds(dist)
        _, trace = run_smacof(dist, init)
        assert len(trace) - 1 == _reference_run_sweeps(dist, init)

    @pytest.mark.parametrize("n", [4, 5])
    def test_coincident_start_gives_reference_nudges(self, n):
        dist = all_pairs_shortest_paths(path_graph(n))
        start = np.full((n, 2), 0.25)
        ours, theirs = np.random.default_rng(7), np.random.default_rng(7)
        after = smacof_iteration(start, dist, ours)
        expected = reference_sweep(start, dist, theirs)
        assert np.abs(after - expected).max() <= 1e-12
        # same number of draws: vertex 0 nudges each of the n - 1 others once
        assert ours.bit_generator.state == theirs.bit_generator.state
        replay = np.random.default_rng(7)
        replay.uniform(size=n - 1)
        assert ours.bit_generator.state == replay.bit_generator.state


class TestRunSmacof:
    def test_stops_quickly_at_local_minimum(self):
        dist = all_pairs_shortest_paths(path_graph(4))
        layout = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [3.0, 0.0]])
        _, trace = run_smacof(dist, layout)
        assert len(trace) == 2

    @pytest.mark.parametrize("graph", [path_graph(30), cycle_graph(20), grid_graph(5, 5)])
    def test_traces_non_increasing(self, graph):
        dist = all_pairs_shortest_paths(graph)
        for seed in range(3):
            _, trace = run_smacof(dist, random_init(graph.n, seed))
            for a, b in zip(trace, trace[1:]):
                assert b <= a * (1.0 + 1e-9)

    def test_grid_converges_to_long_run_value(self):
        dist = all_pairs_shortest_paths(grid_graph(10, 10))
        init = classical_mds(dist)
        _, trace = run_smacof(dist, init)
        # oracle: 200 fixed sweeps, no early stopping
        x = np.array(init)
        for _ in range(200):
            x = smacof_iteration(x, dist)
        assert abs(trace[-1] / stress(x, dist) - 1.0) <= 0.02

    def test_deterministic(self):
        dist = all_pairs_shortest_paths(grid_graph(4, 4))
        x0 = random_init(16, 2)
        a_layout, a_trace = run_smacof(dist, x0)
        b_layout, b_trace = run_smacof(dist, x0)
        assert np.array_equal(a_layout, b_layout)
        assert a_trace == b_trace

    def test_iteration_cap(self):
        dist = all_pairs_shortest_paths(grid_graph(4, 4))
        cfg = SmacofConfig(max_iterations=3)
        _, trace = run_smacof(dist, random_init(16, 0), cfg)
        assert len(trace) == 4

    @pytest.mark.parametrize("cap", [1, 4, MAX_SWEEPS])
    def test_sweeps_through_module_binding(self, cap, monkeypatch):
        # one smacof_iteration call per sweep, looked up on the module
        sweeps = []
        monkeypatch.setattr(smacof, "smacof_iteration",
                            lambda *args: sweeps.append(args) or smacof_iteration(*args))
        dist = all_pairs_shortest_paths(grid_graph(4, 4))
        _, trace = run_smacof(dist, random_init(16, 0), SmacofConfig(cap))
        assert len(sweeps) == len(trace) - 1

    def test_holds_no_n_squared_array(self):
        # the sweep reads the matrix a block of rows at a time: once the pair
        # table exists, a run peaks below 1 B per matrix entry
        dist = all_pairs_shortest_paths(grid_graph(40, 50))
        init = classical_mds(dist)
        stress(init, dist)  # builds the pair table
        tracemalloc.start()
        try:
            run_smacof(dist, init, SmacofConfig(1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < dist.n**2

    def test_callback(self):
        dist = all_pairs_shortest_paths(path_graph(5))
        seen = []
        run_smacof(dist, random_init(5, 0), callback=lambda t, x: seen.append(t))
        assert seen == list(range(1, len(seen) + 1))

    def test_local_optimality_probe(self):
        # at convergence no single vertex can be improved by a small move
        dist = all_pairs_shortest_paths(grid_graph(4, 4))
        layout, trace = run_smacof(dist, classical_mds(dist))
        base = trace[-1]
        radius = 1e-3
        for i in range(16):
            for step in range(16):
                angle = 2.0 * math.pi * step / 16.0
                probe = layout.copy()
                probe[i] += [radius * math.cos(angle), radius * math.sin(angle)]
                assert stress(probe, dist) >= base - 1e-9


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_iterations": 0},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            SmacofConfig(**kwargs)
