import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stresslayout import (
    Schedule,
    SgdConfig,
    all_pairs_shortest_paths,
    classical_mds,
    default_schedule,
    grid_graph,
    pair_update,
    path_graph,
    random_init,
    run_sgd,
    run_smacof,
    stress,
)
from stresslayout.sgd import _round, _rounds


class TestSchedule:
    def test_endpoints(self):
        s = Schedule(t_max=10, eta_max=50.0, eta_min=0.5)
        assert s.eta(0) == 50.0
        assert s.eta(9) == pytest.approx(0.5, rel=1e-9)

    def test_strictly_decreasing(self):
        s = Schedule(t_max=20, eta_max=9.0, eta_min=0.1)
        values = [s.eta(t) for t in range(20)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_closed_form_midpoint(self):
        s = Schedule(t_max=3, eta_max=4.0, eta_min=1.0)
        assert s.eta(1) == pytest.approx(4.0 * math.exp(-math.log(4.0) / 2.0), rel=1e-12)
        assert s.eta(1) == pytest.approx(2.0, rel=1e-12)

    def test_single_step_schedule(self):
        s = Schedule(t_max=1, eta_max=3.0, eta_min=1.0)
        assert s.decay == 0.0
        assert s.eta(0) == 3.0

    def test_out_of_range(self):
        s = Schedule(t_max=3, eta_max=4.0, eta_min=1.0)
        with pytest.raises(ValueError):
            s.eta(3)
        with pytest.raises(ValueError):
            s.eta(-1)

    @pytest.mark.parametrize("args", [(0, 1.0, 1.0), (5, 1.0, 2.0), (5, -1.0, -2.0)])
    def test_invalid_construction(self, args):
        with pytest.raises(ValueError):
            Schedule(*args)


class TestMu:
    def test_cap_engages(self):
        s = Schedule(t_max=1, eta_max=5.0, eta_min=5.0)
        assert s.mu(0, 1.0) == 1.0

    def test_below_cap(self):
        s = Schedule(t_max=1, eta_max=5.0, eta_min=5.0)
        assert s.mu(0, 10.0) == pytest.approx(0.05)

    def test_boundary(self):
        s = Schedule(t_max=1, eta_max=1.0, eta_min=1.0)
        assert s.mu(0, 1.0) == 1.0

    def test_non_increasing_in_t(self):
        s = Schedule(t_max=10, eta_max=100.0, eta_min=0.01)
        for d in (1.0, 3.0, 9.0):
            mus = [s.mu(t, d) for t in range(10)]
            assert all(a >= b for a, b in zip(mus, mus[1:]))
            assert all(m <= 1.0 for m in mus)

    def test_array_matches_scalar(self):
        s = Schedule(t_max=10, eta_max=100.0, eta_min=0.01)
        d = np.array([0.5, 1.0, 3.0, 9.0, 20.0])
        for t in range(10):
            assert s.mu(t, d).tolist() == [s.mu(t, float(v)) for v in d]


class TestDefaultSchedule:
    def test_spans_distance_range(self):
        dist = all_pairs_shortest_paths(grid_graph(10, 10))
        s = default_schedule(dist)
        assert s.t_max == 15
        assert s.eta_max == 18.0**2
        assert s.eta_min == pytest.approx(0.01 * 1.0**2)

    def test_all_pairs_start_at_cap(self):
        dist = all_pairs_shortest_paths(grid_graph(4, 4))
        s = default_schedule(dist)
        d = dist.matrix
        assert all(
            s.mu(0, d[i, j]) == 1.0 for i in range(16) for j in range(i + 1, 16)
        )

    def test_rejects_bad_eps(self):
        dist = all_pairs_shortest_paths(path_graph(3))
        with pytest.raises(ValueError):
            default_schedule(dist, eps=1.5)


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
        a, b = _rounds(n)
        assert a.shape == b.shape == (n - 1 + n % 2, n // 2)
        for row_a, row_b in zip(a, b):
            slots = np.concatenate((row_a, row_b))
            assert len(set(slots.tolist())) == len(slots)  # disjoint within a round
        pairs = sorted(zip(np.minimum(a, b).ravel().tolist(), np.maximum(a, b).ravel().tolist()))
        assert pairs == [(i, j) for i in range(n) for j in range(i + 1, n)]

    @pytest.mark.parametrize("n", [2, 7, 12])
    def test_round_equals_sequential_pair_updates(self, n):
        rng = np.random.default_rng(n)
        a, b = _rounds(n)
        vertex = rng.permutation(n)
        x = rng.normal(scale=3.0, size=(n, 2))
        for row in range(len(a)):
            i, j = vertex[a[row]], vertex[b[row]]
            d = rng.uniform(0.5, 10.0, len(i))
            mu = rng.uniform(0.0, 1.0, len(i))
            expected = x.copy()
            for p, q, d_pq, mu_pq in zip(i, j, d, mu):
                expected[p], expected[q] = pair_update(expected[p], expected[q], d_pq, mu_pq)
            z = x[:, 0] + 1j * x[:, 1]
            _round(z, i, j, d, mu, rng)
            assert np.abs(np.column_stack((z.real, z.imag)) - expected).max() <= 1e-12
            x = expected

    @pytest.mark.parametrize("n", [4, 5])
    def test_coincident_start_even_and_odd(self, n):
        dist = all_pairs_shortest_paths(path_graph(n))
        cfg = SgdConfig(default_schedule(dist), seed=3)
        layout, trace = run_sgd(dist, np.zeros((n, 2)), cfg)
        assert np.isfinite(layout).all()
        assert all(math.isfinite(v) for v in trace)
        assert trace[-1] < trace[0]


def one_iteration(x0, dist, schedule, seed):
    layout, _ = run_sgd(dist, x0, SgdConfig(schedule, seed=seed), iterations=1)
    return layout


class TestSgdIteration:
    def test_single_pair_realizes_distance(self):
        dist = all_pairs_shortest_paths(path_graph(2))
        sched = default_schedule(dist, t_max=1)
        x = one_iteration([[0.0, 0.0], [5.0, 0.0]], dist, sched, 0)
        assert math.hypot(*(x[0] - x[1])) == pytest.approx(1.0, rel=1e-12)

    def test_matches_pair_update_for_n2(self):
        dist = all_pairs_shortest_paths(path_graph(2))
        sched = Schedule(t_max=1, eta_max=0.25, eta_min=0.25)
        x0 = np.array([[0.0, 0.0], [3.0, 1.0]])
        got = one_iteration(x0, dist, sched, 1)
        p, q = pair_update(x0[0], x0[1], 1.0, sched.mu(0, 1.0))
        assert np.allclose(got, np.vstack([p, q]), atol=1e-15)

    def test_deterministic_per_seed(self):
        dist = all_pairs_shortest_paths(grid_graph(3, 3))
        sched = default_schedule(dist)
        x0 = random_init(9, 5)
        a = one_iteration(x0, dist, sched, 11)
        b = one_iteration(x0, dist, sched, 11)
        assert np.array_equal(a, b)

    def test_path3_stress_decreases_all_seeds(self):
        dist = all_pairs_shortest_paths(path_graph(3))
        sched = default_schedule(dist, t_max=1)  # every mu at the cap
        for seed in range(10):
            x0 = random_init(3, seed)
            before = stress(x0, dist)
            x1 = one_iteration(x0, dist, sched, seed)
            assert stress(x1, dist) < before


class TestRunSgd:
    def test_single_edge_exact_after_one_iteration(self):
        dist = all_pairs_shortest_paths(path_graph(2))
        cfg = SgdConfig(Schedule(t_max=1, eta_max=4.0, eta_min=4.0), seed=3)
        layout, trace = run_sgd(dist, [[0.0, 0.0], [0.5, 0.5]], cfg)
        # distance is realized to 1e-12 relative, so stress is its square
        assert trace[-1] <= 1e-24
        assert len(trace) == 2

    def test_trace_shape_and_determinism(self):
        dist = all_pairs_shortest_paths(grid_graph(3, 3))
        cfg = SgdConfig(default_schedule(dist), seed=17)
        x0 = random_init(9, 17)
        layout1, trace1 = run_sgd(dist, x0, cfg)
        layout2, trace2 = run_sgd(dist, x0, cfg)
        assert len(trace1) == cfg.schedule.t_max + 1
        assert trace1 == trace2
        assert np.array_equal(layout1, layout2)

    def test_coincident_initial_points_are_jittered(self):
        dist = all_pairs_shortest_paths(path_graph(3))
        cfg = SgdConfig(default_schedule(dist), seed=0)
        layout, trace = run_sgd(dist, [[0.5, 0.5], [0.5, 0.5], [0.5, 0.5]], cfg)
        assert np.isfinite(layout).all()
        assert all(math.isfinite(v) for v in trace)
        assert trace[-1] < trace[0]

    def test_truncated_run_is_prefix(self):
        dist = all_pairs_shortest_paths(grid_graph(3, 3))
        cfg = SgdConfig(default_schedule(dist), seed=9)
        x0 = random_init(9, 9)
        full_layouts = {}
        run_sgd(dist, x0, cfg, callback=lambda t, x: full_layouts.setdefault(t, x))
        partial, trace = run_sgd(dist, x0, cfg, iterations=4)
        assert np.array_equal(partial, full_layouts[4])
        assert len(trace) == 5

    def test_callback_numbering(self):
        dist = all_pairs_shortest_paths(path_graph(4))
        cfg = SgdConfig(default_schedule(dist, t_max=5), seed=1)
        seen = []
        run_sgd(dist, random_init(4, 1), cfg, callback=lambda t, x: seen.append(t))
        assert seen == [1, 2, 3, 4, 5]

    def test_iterations_out_of_range(self):
        dist = all_pairs_shortest_paths(path_graph(3))
        cfg = SgdConfig(default_schedule(dist), seed=0)
        with pytest.raises(ValueError):
            run_sgd(dist, random_init(3, 0), cfg, iterations=99)

    def test_grid_final_stress_near_reference(self):
        # reference: majorization from the classical-MDS layout, run to convergence
        dist = all_pairs_shortest_paths(grid_graph(10, 10))
        _, ref_trace = run_smacof(dist, classical_mds(dist))
        cfg = SgdConfig(default_schedule(dist), seed=0)
        _, trace = run_sgd(dist, random_init(100, 0), cfg)
        assert abs(trace[-1] / ref_trace[-1] - 1.0) <= 0.02
