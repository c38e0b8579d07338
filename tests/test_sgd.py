import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stresslayout import (
    SgdConfig,
    all_pairs_shortest_paths,
    classical_mds,
    cycle_graph,
    generate,
    grid_graph,
    path_graph,
    random_init,
    run_sgd,
    run_smacof,
    stress,
)
from stresslayout import sgd
from stresslayout.sgd import ITERATIONS, _round, _round_rows, step_widths
from helpers import circle_rounds, pair_update, random_connected_graph, reference_sgd

# (graph, d_max) with d_min = 1 on every one
GRAPHS = [
    (path_graph(7), 6),
    (cycle_graph(9), 4),
    (grid_graph(10, 10), 18),
    (random_connected_graph(30, 10, 2), None),
]


def distance_range(graph, d_max):
    dist = all_pairs_shortest_paths(graph)
    targets = dist.pairs[2]
    if d_max is not None:
        assert (targets.max(), targets.min()) == (d_max, 1)
    return dist, float(targets.max()), float(targets.min())


class TestSgdConfig:
    def test_defaults(self):
        assert SgdConfig() == SgdConfig(iterations=15, eps=0.01, seed=0)

    def test_exactly_three_fields(self):
        assert [f.name for f in dataclasses.fields(SgdConfig)] == ["iterations", "eps", "seed"]

    @pytest.mark.parametrize(
        "kwargs", [{"iterations": 0}, {"iterations": -3}, {"eps": 0.0}, {"eps": 1.0},
                   {"eps": 1.5}, {"eps": -0.1}, {"seed": -1}]
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            SgdConfig(**kwargs)

    def test_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            SgdConfig().eps = 0.5


class TestStepWidths:
    """eta runs from d_max**2 to eps * d_min**2 on the graph's own distances."""

    @pytest.mark.parametrize("graph,d_max", GRAPHS)
    @pytest.mark.parametrize("eps", [0.01, 0.3])
    def test_endpoints(self, graph, d_max, eps):
        dist, high, low = distance_range(graph, d_max)
        widths = step_widths(dist, SgdConfig(eps=eps))
        assert len(widths) == ITERATIONS
        assert widths[0] == high**2
        assert widths[-1] == pytest.approx(eps * low**2, rel=1e-12)

    @pytest.mark.parametrize("graph,d_max", GRAPHS)
    def test_every_pair_starts_at_mu_1(self, graph, d_max):
        dist, _, _ = distance_range(graph, d_max)
        eta = step_widths(dist, SgdConfig())[0]
        d = dist.pairs[2].astype(float)
        assert (np.minimum(1.0, eta / (d * d)) == 1.0).all()

    @pytest.mark.parametrize("graph,d_max", GRAPHS)
    def test_tightest_pairs_end_at_eps(self, graph, d_max):
        dist, _, low = distance_range(graph, d_max)
        eta = step_widths(dist, SgdConfig(eps=0.05))[-1]
        assert min(1.0, eta / low**2) == pytest.approx(0.05, rel=1e-12)

    @pytest.mark.parametrize("graph,d_max", GRAPHS)
    def test_strictly_decreasing(self, graph, d_max):
        dist, _, _ = distance_range(graph, d_max)
        widths = step_widths(dist, SgdConfig(iterations=30))
        assert all(a > b for a, b in zip(widths, widths[1:]))

    @pytest.mark.parametrize("graph,d_max", GRAPHS)
    def test_closed_form_midpoint(self, graph, d_max):
        # with three steps the middle width is the geometric mean of the ends
        dist, high, low = distance_range(graph, d_max)
        widths = step_widths(dist, SgdConfig(iterations=3, eps=0.2))
        assert widths[1] == pytest.approx(math.sqrt(high**2 * 0.2 * low**2), rel=1e-12)
        assert widths[1] == pytest.approx(
            high**2 * math.exp(-math.log(high**2 / (0.2 * low**2)) / 2.0), rel=1e-12
        )

    @pytest.mark.parametrize("graph,d_max", GRAPHS)
    def test_single_step(self, graph, d_max):
        dist, high, _ = distance_range(graph, d_max)
        assert step_widths(dist, SgdConfig(iterations=1, eps=0.5)) == [high**2]

    def test_fewer_than_two_vertices(self):
        dist = all_pairs_shortest_paths(path_graph(1))
        assert step_widths(dist, SgdConfig(iterations=4)) == [1.0] * 4


class TestPairUpdate:
    def test_full_correction_shrinks(self):
        p, q = pair_update((0.0, 0.0), (2.0, 0.0), d=1.0, mu=1.0)
        assert np.allclose(p, [0.5, 0.0]) and np.allclose(q, [1.5, 0.0])

    def test_full_correction_extends(self):
        p, q = pair_update((0.0, 0.0), (1.0, 0.0), d=3.0, mu=1.0)
        assert np.allclose(p, [-1.0, 0.0]) and np.allclose(q, [2.0, 0.0])
        assert math.hypot(*(p - q)) == pytest.approx(3.0, rel=1e-12)

    def test_zero_step_is_identity(self):
        p, q = pair_update((0.3, -0.7), (1.1, 2.0), d=5.0, mu=0.0)
        assert np.array_equal(p, [0.3, -0.7]) and np.array_equal(q, [1.1, 2.0])

    def test_coincident_raises(self):
        with pytest.raises(ValueError, match="coincident"):
            pair_update((1.0, 1.0), (1.0, 1.0), d=1.0, mu=1.0)

    coord = st.floats(-100.0, 100.0, allow_nan=False, allow_infinity=False)

    @given(
        st.tuples(coord, coord),
        st.tuples(coord, coord),
        st.floats(0.5, 50.0),
        st.floats(0.001, 1.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_midpoint_preserved_and_mu1_exact(self, pi, pj, d, mu):
        pi, pj = np.asarray(pi), np.asarray(pj)
        if math.hypot(*(pi - pj)) < 1e-9:
            return
        a, b = pair_update(pi, pj, d, mu)
        mid_before = (pi + pj) / 2.0
        mid_after = (a + b) / 2.0
        assert np.abs(mid_after - mid_before).max() < 1e-12
        if mu == 1.0:
            assert math.hypot(*(a - b)) == pytest.approx(d, rel=1e-12)

    def test_mu1_exactness_thousand_pairs(self):
        rng = np.random.default_rng(42)
        for _ in range(1000):
            pi, pj = rng.normal(size=2), rng.normal(size=2)
            d = float(rng.uniform(0.5, 20.0))
            a, b = pair_update(pi, pj, d, 1.0)
            assert abs(math.hypot(*(a - b)) - d) <= 1e-12 * d


class TestMatchingRounds:
    @given(st.integers(2, 60))
    @settings(max_examples=60, deadline=None)
    def test_rounds_partition_all_pairs(self, n):
        a, b = _round_rows(np.arange(n))(np.arange(n - 1 + n % 2))
        assert a.shape == b.shape == (n - 1 + n % 2, n // 2)
        for row_a, row_b in zip(a, b):
            slots = np.concatenate((row_a, row_b))
            assert len(set(slots.tolist())) == len(slots)  # disjoint within a round
        pairs = sorted(zip(np.minimum(a, b).ravel().tolist(), np.maximum(a, b).ravel().tolist()))
        assert pairs == [(i, j) for i in range(n) for j in range(i + 1, n)]

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=10, deadline=None)
    def test_window_rows_equal_circle_formula(self, seed):
        rng = np.random.default_rng(seed)
        for n in [*range(1, 65), 360, 400, 401, 600]:
            vertex = rng.permutation(n)
            rounds = rng.permutation(n - 1 + n % 2)
            a, b = _round_rows(vertex)(rounds)
            slot_a, slot_b = circle_rounds(n, rounds)
            assert np.array_equal(a, vertex[slot_a])
            assert np.array_equal(b, vertex[slot_b])

    @pytest.mark.parametrize("n", [2, 3, 12, 13, 400, 401])
    def test_rows_never_alias_the_ring(self, n):
        rng = np.random.default_rng(n)
        vertex = rng.permutation(n)
        before = vertex.copy()
        rows = _round_rows(vertex)
        rounds = rng.permutation(n - 1 + n % 2)
        first = rows(rounds)
        for row in first:
            assert not np.shares_memory(row, vertex)
        assert not np.shares_memory(*first)
        assert np.array_equal(vertex, before)
        # the even-n column-0 write reached no window: a second call returns the same rows
        for again, row in zip(rows(rounds), first):
            assert np.array_equal(again, row)

    @pytest.mark.parametrize("n", [2, 7, 12])
    def test_round_equals_sequential_pair_updates(self, n):
        rng = np.random.default_rng(n)
        vertex = rng.permutation(n)
        a, b = _round_rows(vertex)(np.arange(n - 1 + n % 2))
        x = rng.normal(scale=3.0, size=(n, 2))
        for i, j in zip(a, b):
            d = rng.uniform(0.5, 10.0, len(i))
            mu = rng.uniform(0.0, 1.0, len(i))
            expected = x.copy()
            for p, q, d_pq, mu_pq in zip(i, j, d, mu):
                expected[p], expected[q] = pair_update(expected[p], expected[q], d_pq, mu_pq)
            z = x[:, 0] + 1j * x[:, 1]
            _round(z, i, j, d, 0.5 * mu, rng)
            assert np.abs(np.column_stack((z.real, z.imag)) - expected).max() <= 1e-12
            x = expected

    @pytest.mark.parametrize("n", [4, 5])
    def test_coincident_start_even_and_odd(self, n):
        dist = all_pairs_shortest_paths(path_graph(n))
        layout, trace = run_sgd(dist, np.zeros((n, 2)), SgdConfig(seed=3))
        assert np.isfinite(layout).all()
        assert all(math.isfinite(v) for v in trace)
        assert trace[-1] < trace[0]


def one_iteration(x0, dist, seed, iterations=ITERATIONS):
    """The first step of an iterations-long schedule."""
    layout, _ = run_sgd(dist, x0, SgdConfig(iterations, seed=seed), steps=1)
    return layout


class TestSgdIteration:
    def test_single_pair_realizes_distance(self):
        dist = all_pairs_shortest_paths(path_graph(2))
        x = one_iteration([[0.0, 0.0], [5.0, 0.0]], dist, 0, iterations=1)
        assert math.hypot(*(x[0] - x[1])) == pytest.approx(1.0, rel=1e-12)

    def test_matches_sequential_pair_updates(self):
        # oracle: the documented random stream, rounds in drawn order, and
        # pair_update one pair at a time with mu = min(1, eta / d**2)
        n = 9
        dist = all_pairs_shortest_paths(grid_graph(3, 3))
        cfg = SgdConfig(iterations=5, eps=0.1, seed=4)
        x0 = random_init(n, 4)
        got, _ = run_sgd(dist, x0, cfg)
        rng = np.random.default_rng(cfg.seed)
        slot_a, slot_b = circle_rounds(n, np.arange(n - 1 + n % 2))
        x = np.array(x0, dtype=float)
        for eta in step_widths(dist, cfg):
            vertex = rng.permutation(n)
            for row in rng.permutation(len(slot_a)):
                for i, j in zip(vertex[slot_a[row]], vertex[slot_b[row]]):
                    d = float(dist.matrix[i, j])
                    x[i], x[j] = pair_update(x[i], x[j], d, min(1.0, eta / (d * d)))
        assert np.abs(got - x).max() <= 1e-12

    def test_deterministic_per_seed(self):
        dist = all_pairs_shortest_paths(grid_graph(3, 3))
        x0 = random_init(9, 5)
        a = one_iteration(x0, dist, 11)
        b = one_iteration(x0, dist, 11)
        assert np.array_equal(a, b)

    def test_path3_stress_decreases_all_seeds(self):
        dist = all_pairs_shortest_paths(path_graph(3))
        for seed in range(10):
            x0 = random_init(3, seed)
            before = stress(x0, dist)
            x1 = one_iteration(x0, dist, seed)  # every mu at the cap
            assert stress(x1, dist) < before


class TestRunSgd:
    def test_single_edge_exact_after_one_iteration(self):
        dist = all_pairs_shortest_paths(path_graph(2))
        layout, trace = run_sgd(dist, [[0.0, 0.0], [0.5, 0.5]], SgdConfig(1, seed=3))
        # distance is realized to 1e-12 relative, so stress is its square
        assert trace[-1] <= 1e-24
        assert len(trace) == 2

    def test_trace_shape_and_determinism(self):
        dist = all_pairs_shortest_paths(grid_graph(3, 3))
        cfg = SgdConfig(seed=17)
        x0 = random_init(9, 17)
        layout1, trace1 = run_sgd(dist, x0, cfg)
        layout2, trace2 = run_sgd(dist, x0, cfg)
        assert len(trace1) == cfg.iterations + 1
        assert trace1 == trace2
        assert np.array_equal(layout1, layout2)

    def test_coincident_initial_points_are_jittered(self):
        dist = all_pairs_shortest_paths(path_graph(3))
        layout, trace = run_sgd(dist, [[0.5, 0.5], [0.5, 0.5], [0.5, 0.5]], SgdConfig())
        assert np.isfinite(layout).all()
        assert all(math.isfinite(v) for v in trace)
        assert trace[-1] < trace[0]

    def test_truncated_run_is_prefix(self):
        dist = all_pairs_shortest_paths(grid_graph(3, 3))
        cfg = SgdConfig(seed=9)
        x0 = random_init(9, 9)
        full_layouts = {}
        run_sgd(dist, x0, cfg, callback=lambda t, x: full_layouts.setdefault(t, x))
        partial, trace = run_sgd(dist, x0, cfg, steps=4)
        assert np.array_equal(partial, full_layouts[4])
        assert len(trace) == 5

    def test_callback_numbering(self):
        dist = all_pairs_shortest_paths(path_graph(4))
        seen = []
        run_sgd(dist, random_init(4, 1), SgdConfig(5, seed=1),
                callback=lambda t, x: seen.append(t))
        assert seen == [1, 2, 3, 4, 5]

    @pytest.mark.parametrize("steps", [-1, 16, 99])
    def test_steps_out_of_range(self, steps):
        dist = all_pairs_shortest_paths(path_graph(3))
        with pytest.raises(ValueError, match="steps"):
            run_sgd(dist, random_init(3, 0), SgdConfig(), steps=steps)

    def test_grid_final_stress_near_reference(self):
        # reference: majorization from the classical-MDS layout, run to convergence
        dist = all_pairs_shortest_paths(grid_graph(10, 10))
        _, ref_trace = run_smacof(dist, classical_mds(dist))
        _, trace = run_sgd(dist, random_init(100, 0), SgdConfig())
        assert abs(trace[-1] / ref_trace[-1] - 1.0) <= 0.02


class TestChunkedRounds:
    @pytest.mark.parametrize("block", [1, 64, sgd.STRESS_BLOCK])
    @pytest.mark.parametrize(
        "spec, start",
        [(("grid", 5, 7), "random"), (("cycle", 11), "random"), (("path", 6), "zeros"),
         (("path", 1), "random"), (("path", 2), "random"), (("path", 2), "zeros"),
         (("path", 3), "random"), (("path", 3), "zeros"), (("grid", 13, 17), "random")],
        ids=["grid_5x7", "cycle_11", "path_6_coincident", "path_1", "path_2",
             "path_2_coincident", "path_3", "path_3_coincident", "grid_13x17"],
    )
    def test_matches_whole_iteration_gathers(self, monkeypatch, block, spec, start):
        # a small block splits each iteration into many chunks of rounds; the
        # default one splits grid_13x17's 221 rounds into 147 and 74
        dist = all_pairs_shortest_paths(generate(*spec))
        x0 = random_init(dist.n, 3) if start == "random" else np.zeros((dist.n, 2))
        config = SgdConfig(seed=3)
        expected, expected_trace = reference_sgd(dist, x0, config)
        monkeypatch.setattr(sgd, "STRESS_BLOCK", block)
        layout, trace = run_sgd(dist, x0, config)
        assert np.array_equal(layout, expected)
        assert np.array_equal(trace, expected_trace)

    def test_peak_memory_bounded(self):
        dist = all_pairs_shortest_paths(grid_graph(20, 30))
        x0 = random_init(dist.n, 0)
        config = SgdConfig(iterations=2)
        run_sgd(dist, x0, config)  # builds the pair table and one-time allocations
        tracemalloc.start()
        try:
            run_sgd(dist, x0, config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * 2**20  # no (n - 1) x n / 2 round table or gather
