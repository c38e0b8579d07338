import math
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stresslayout import (
    all_pairs_shortest_paths,
    cycle_graph,
    grid_graph,
    path_graph,
    stress,
)
from stresslayout.stress import JITTER_EPSILON, STRESS_BLOCK, ExactSum, points, separate
from helpers import (
    dense_stress_gradient,
    finite_difference_gradient,
    procrustes_error,
    procrustes_grid_oracle,
    random_connected_graph,
    reference_stress,
    stress_gradient,
)

P3_DIST = all_pairs_shortest_paths(path_graph(3))

EPS = np.finfo(float).eps
finite_coord = st.floats(-50.0, 50.0, allow_nan=False, allow_infinity=False)


def small_layout(n):
    return st.lists(st.tuples(finite_coord, finite_coord), min_size=n, max_size=n).map(np.array)


class TestStressValue:
    def test_realized_path_is_zero(self):
        assert stress([[0, 0], [1, 0], [2, 0]], P3_DIST) == 0.0

    def test_degenerate_path_example(self):
        # independent evaluation of the three pair terms:
        #   (0,1): (1-1)^2 / 1 = 0
        #   (0,2): (1-2)^2 / 4 = 0.25
        #   (1,2): (0-1)^2 / 1 = 1
        expected = 0.0 + (1.0 - 2.0) ** 2 / 2.0**2 + (0.0 - 1.0) ** 2 / 1.0**2
        assert expected == 1.25
        assert stress([[0, 0], [1, 0], [1, 0]], P3_DIST) == pytest.approx(1.25, abs=1e-15)

    def test_single_edge_stretched(self):
        d = all_pairs_shortest_paths(path_graph(2))
        assert stress([[0, 0], [2, 0]], d) == pytest.approx(1.0, abs=1e-15)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="expected 3"):
            stress([[0, 0], [1, 0]], P3_DIST)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="finite"):
            stress([[0, 0], [1, 0], [math.nan, 0]], P3_DIST)

    @given(
        small_layout(6),
        st.floats(0, 2 * math.pi, allow_nan=False),
        st.tuples(finite_coord, finite_coord),
        st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_rigid_motion_invariance(self, layout, angle, shift, reflect):
        dist = all_pairs_shortest_paths(cycle_graph(6))
        base = stress(layout, dist)
        c, s = math.cos(angle), math.sin(angle)
        rot = np.array([[c, s], [-s, c]])
        moved = layout @ rot + np.asarray(shift)
        if reflect:
            moved = moved[:, ::-1].copy()
        assert stress(moved, dist) == pytest.approx(base, rel=1e-10, abs=1e-12)


def exact_sum(*arrays):
    total = ExactSum()
    for values in arrays:
        total.add(np.asarray(values, dtype=float))
    return total.value()


# Exponent fields up to 2029 give values below 2**1007, so even 2**16 of
# them sum below 2**1023 and math.fsum, the oracle, cannot overflow
# (TestExactSum.test_top_of_range covers the rest of the range).
MAX_EXPONENT_FIELD = 2029
LENGTHS = (0, 1, 2, 3, 50, STRESS_BLOCK - 1, STRESS_BLOCK, STRESS_BLOCK + 1)


@st.composite
def nonnegative_arrays(draw):
    """float64 arrays built from their bits: exponent fields drawn from a
    range anywhere in [0, MAX_EXPONENT_FIELD] (0 gives zeros and
    subnormals), mantissas random, all zero or all ones, plus exact zeros."""
    length = draw(st.sampled_from(LENGTHS))
    low = draw(st.integers(0, MAX_EXPONENT_FIELD))
    high = draw(st.integers(low, MAX_EXPONENT_FIELD))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    exponents = rng.integers(low, high, length, dtype=np.int64, endpoint=True)
    mantissas = {
        "random": rng.integers(0, 1 << 52, length, dtype=np.int64),
        "zero": np.zeros(length, dtype=np.int64),
        "ones": np.full(length, (1 << 52) - 1, dtype=np.int64),
    }[draw(st.sampled_from(["random", "zero", "ones"]))]
    bits = (exponents << 52) | mantissas
    bits[rng.random(length) < draw(st.sampled_from([0.0, 0.5, 1.0]))] = 0
    return bits.view(np.float64)


@st.composite
def round_half_even_ties(draw):
    """A value b plus k halves of b's last place (a tie for odd k), in
    random order, sometimes with 2**-1074 more to break the tie."""
    exponent = draw(st.integers(54, MAX_EXPONENT_FIELD))  # half an ulp stays representable
    mantissa = draw(st.integers(0, (1 << 52) - 1))
    base = float(np.int64((exponent << 52) | mantissa).view(np.float64))
    k = draw(st.sampled_from([1, 2, 3, 1001, STRESS_BLOCK + 1]))
    values = np.concatenate([[base], np.full(k, math.ulp(base) / 2),
                             [5e-324] if draw(st.booleans()) else []])
    return np.random.default_rng(draw(st.integers(0, 2**32 - 1))).permutation(values)


class TestExactSum:
    @given(st.one_of(nonnegative_arrays(), round_half_even_ties()), st.data())
    @settings(max_examples=300, deadline=None)
    def test_equals_fsum(self, values, data):
        expected = math.fsum(values)
        assert exact_sum(values) == expected
        cut = data.draw(st.integers(0, len(values)))
        assert exact_sum(values[cut:], values[:cut]) == expected  # any split, any order

    @pytest.mark.parametrize("values, expected", [
        ([1.0, 2**-53], 1.0),  # a tie rounds to the even neighbour below
        ([1.0 + 2**-52, 2**-53], 1.0 + 2**-51),  # and to the even neighbour above
        ([1.0, 2**-53, 5e-324], 1.0 + 2**-52),  # just past the tie rounds up
        ([1.0] + [2**-53] * (STRESS_BLOCK + 1), 1.0 + (STRESS_BLOCK + 1) * 2**-53),
        ([5e-324] * 3, 1.5e-323),
        ([], 0.0),
    ])
    def test_examples(self, values, expected):
        assert exact_sum(values) == math.fsum(values) == expected

    @pytest.mark.parametrize("values, expected", [
        ([sys.float_info.max, 2.0**969], sys.float_info.max),  # below half the last place
        ([sys.float_info.max, 1.0], sys.float_info.max),
        ([sys.float_info.max, 2.0**970], OverflowError),  # a tie rounds to 2**1024
        ([sys.float_info.max] * 2, OverflowError),
        ([1.0, math.inf, 2.0], math.inf),
        ([sys.float_info.max] * 2 + [math.inf], OverflowError),
    ])
    def test_top_of_range(self, values, expected):
        if expected is OverflowError:
            with pytest.raises(OverflowError):
                math.fsum(values)
            with pytest.raises(OverflowError):
                exact_sum(values)
        else:
            assert exact_sum(values) == math.fsum(values) == expected

    def test_rounds_where_fsum_overflows_midway(self):
        # exactly float max + 2**970 - 2**916, just under the tie with 2**1024; fsum
        # rounds its partial 2**970 - 2**916 up to 2**970 and raises on that tie
        values = [2.0**969, 2.0**969 - 2.0**916, sys.float_info.max]
        with pytest.raises(OverflowError):
            math.fsum(values)
        assert exact_sum(values) == float(sum(map(Fraction, values))) == sys.float_info.max


SCALES = (1e-8, 1e-3, 1.0, 1e3, 1e8)

# Instances up to one block and above it, each with two random layouts.
on_instances = pytest.mark.parametrize("graph", [
    path_graph(7), cycle_graph(12), grid_graph(5, 6), random_connected_graph(40, 20, 5),
    path_graph(300), cycle_graph(260), grid_graph(16, 17), random_connected_graph(270, 135, 6),
], ids=["path7", "cycle12", "grid5x6", "random40",
        "path300", "cycle260", "grid16x17", "random270"])
on_seeds = pytest.mark.parametrize("seed", range(2))


class TestStressExactness:
    @on_instances
    @on_seeds
    def test_equals_reference(self, graph, seed):
        dist = all_pairs_shortest_paths(graph)
        layout = np.random.default_rng(seed).normal(size=(graph.n, 2))
        for scale in SCALES:
            assert stress(layout * scale, dist) == reference_stress(layout * scale, dist)

    @on_instances
    @on_seeds
    def test_within_four_ulp_lengths_of_hypot(self, graph, seed):
        # stress measures lengths as np.abs of complex differences; against
        # np.hypot lengths summed by fsum, it may differ by what a 4-ulp
        # error in each length changes its term, plus each side's rounding
        # of the term (2.5 eps) and of the sum (half an ulp).
        dist = all_pairs_shortest_paths(graph)
        i, j, target = dist.pairs
        target = target.astype(float)
        layout = np.random.default_rng(seed).normal(size=(graph.n, 2))
        for scale in SCALES:
            x = layout * scale
            lengths = np.hypot(x[i, 0] - x[j, 0], x[i, 1] - x[j, 1])
            terms = ((lengths - target) / target) ** 2
            hypot_stress = math.fsum(memoryview(terms))
            slack = 4.0 * np.spacing(lengths)
            term_slack = slack * (2.0 * np.abs(lengths - target) + slack) / target**2
            bound = math.fsum(memoryview(term_slack + 5.0 * EPS * terms)) + math.ulp(hypot_stress)
            assert abs(stress(x, dist) - hypot_stress) <= bound

    def test_realized_path_above_one_block(self):
        dist = all_pairs_shortest_paths(path_graph(300))
        assert len(dist.pairs[2]) > STRESS_BLOCK
        line = np.column_stack([np.arange(300.0), np.zeros(300)])
        assert stress(line, dist) == reference_stress(line, dist) == 0.0
        line[150, 1] = 1e-7
        assert stress(line, dist) == reference_stress(line, dist) > 0.0

    def test_infinite_term(self):
        layout = [[-1e308, 0.0], [0.0, 0.0], [1e308, 0.0]]  # |x_0 - x_2| overflows to inf
        assert stress(layout, P3_DIST) == reference_stress(layout, P3_DIST) == math.inf

    def test_finite_overflow(self):
        layout = [[0.0, 0.0], [1e154, 0.0], [2e154, 0.0]]  # three terms near 1e308
        for evaluate in (stress, reference_stress):
            with pytest.raises(OverflowError):
                evaluate(layout, P3_DIST)


class TestStressMemory:
    @staticmethod
    def peak_bytes(rows, cols):
        dist = all_pairs_shortest_paths(grid_graph(rows, cols))
        layout = np.random.default_rng(0).normal(size=(dist.n, 2))
        stress(layout, dist)  # the cached pair table is not stress's scratch memory
        tracemalloc.start()
        try:
            stress(layout, dist)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_peak_does_not_grow_with_pairs(self):
        small, large = self.peak_bytes(20, 30), self.peak_bytes(30, 50)  # 179700, 1124250 pairs
        assert large < 2 * 2**20
        assert large <= 1.1 * small


class TestGradient:
    def test_zero_at_global_minimum(self):
        g = stress_gradient([[0, 0], [1, 0], [2, 0]], P3_DIST)
        assert np.allclose(g, 0.0, atol=1e-14)

    def test_single_edge_example(self):
        d = all_pairs_shortest_paths(path_graph(2))
        g = stress_gradient([[0, 0], [2, 0]], d)
        assert np.allclose(g, [[-2.0, 0.0], [2.0, 0.0]], atol=1e-12)
        fd = finite_difference_gradient([[0, 0], [2, 0]], d)
        assert np.allclose(g, fd, atol=1e-5)

    def test_square_symmetry(self):
        d = all_pairs_shortest_paths(cycle_graph(4))
        g = stress_gradient([[0, 0], [1, 0], [1, 1], [0, 1]], d)
        magnitudes = np.hypot(g[:, 0], g[:, 1])
        assert np.allclose(magnitudes, magnitudes[0], rtol=1e-12)

    def test_coincident_points_raise(self):
        with pytest.raises(ValueError, match="coincident"):
            stress_gradient([[0, 0], [0, 0], [1, 0]], P3_DIST)

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 21))
        g = random_connected_graph(n, int(rng.integers(0, n)), seed + 1000)
        dist = all_pairs_shortest_paths(g)
        layout = rng.random((n, 2)) * 3.0
        analytic = stress_gradient(layout, dist)
        numeric = finite_difference_gradient(layout, dist)
        assert np.abs(analytic - numeric).max() < 1e-5

    @pytest.mark.parametrize(
        "graph",
        [path_graph(2), path_graph(9), cycle_graph(2), cycle_graph(11), grid_graph(4, 5),
         grid_graph(1, 7), *(random_connected_graph(n, n // 2, n) for n in (3, 12, 30))],
        ids=["path2", "path9", "cycle2", "cycle11", "grid4x5", "grid1x7",
             "random3", "random12", "random30"],
    )
    @pytest.mark.parametrize("seed", range(3))
    def test_matches_dense_formula(self, graph, seed):
        dist = all_pairs_shortest_paths(graph)
        layout = np.random.default_rng(seed).normal(scale=3.0, size=(graph.n, 2))
        dense = dense_stress_gradient(layout, dist)
        error = np.abs(stress_gradient(layout, dist) - dense).max()
        assert error <= 1e-12 * np.abs(dense).max()

    def test_descent_direction(self):
        rng = np.random.default_rng(7)
        dist = all_pairs_shortest_paths(random_connected_graph(8, 4, 3))
        layout = rng.random((8, 2)) * 2.0
        grad = stress_gradient(layout, dist)
        assert np.abs(grad).max() > 0
        before = stress(layout, dist)
        step = 1e-3
        for _ in range(40):  # line-search probe: halve until strict decrease
            if stress(layout - step * grad, dist) < before:
                break
            step *= 0.5
        else:
            pytest.fail("no decrease along the negative gradient")


def scalar_separate(z, i, j, rng):
    """Reference nudge: one scalar angle per pair, applied pair by pair."""
    for a, b in zip(i, j):
        angle = rng.uniform(0.0, 2.0 * math.pi)
        nudge = JITTER_EPSILON * complex(math.cos(angle), math.sin(angle))
        z[a] += nudge
        z[b] -= nudge


class TestPoints:
    def test_view_of_layout_rows(self):
        x = np.array([[1.0, 2.0], [-3.0, 0.5], [0.0, -0.25]])
        z = points(x)
        assert np.shares_memory(z, x)
        assert z.tolist() == [1 + 2j, -3 + 0.5j, -0.25j]
        z[1] = 4 - 1j
        assert x[1].tolist() == [4.0, -1.0]


class TestSeparate:
    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("i,j", [
        ([2, 2, 2, 2], [0, 1, 3, 5]),  # one vertex against its coincident neighbours
        ([0, 4, 1], [3, 2, 5]),  # disjoint pairs, as in one matching round
        ([5, 5], [0, 4]),
    ])
    def test_equals_scalar_loop(self, seed, i, j):
        z = np.random.default_rng(100 + seed).normal(size=6) + 0j
        z[j] = z[i]  # each pair coincident, as the optimizers call it
        expected = z.copy()
        rng_loop = np.random.default_rng(seed)
        scalar_separate(expected, i, j, rng_loop)
        rng = np.random.default_rng(seed)
        separate(z, np.array(i), np.array(j), rng)
        assert np.array_equal(z, expected)
        assert rng.bit_generator.state == rng_loop.bit_generator.state

    @pytest.mark.parametrize("seed", range(4))
    def test_coincident_pairs_keep_midpoints(self, seed):
        rng = np.random.default_rng(seed)
        i, j = np.array([0, 2, 4]), np.array([1, 3, 5])
        z = rng.normal(size=6) + 1j * rng.normal(size=6)
        z[j] = z[i]
        before = z[i].copy()
        separate(z, i, j, rng)
        assert np.abs((z[i] + z[j]) / 2.0 - before).max() <= 1e-15
        assert np.allclose(np.abs(z[i] - z[j]), 2.0 * JITTER_EPSILON, rtol=1e-8)

    def test_repeated_index_keeps_centroid(self):
        z = np.zeros(5, dtype=complex)
        separate(z, np.full(4, 0), np.arange(1, 5), np.random.default_rng(3))
        assert abs(z.sum()) <= 1e-20
        assert np.allclose(np.abs(z[1:]), JITTER_EPSILON, rtol=1e-12)


class TestProcrustes:
    def test_identity(self):
        a = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0]])
        assert procrustes_error(a, a) == pytest.approx(0.0, abs=1e-12)

    def test_rigid_motion_is_zero(self):
        a = np.array([[0.0, 0.0], [2.0, 0.0], [2.0, 1.0], [0.0, 1.0]])
        rotated = a @ np.array([[0.0, 1.0], [-1.0, 0.0]]) + np.array([4.0, -2.0])
        assert procrustes_error(a, rotated) == pytest.approx(0.0, abs=1e-12)

    def test_uniform_scale_is_zero(self):
        a = np.array([[0.0, 0.0], [1.0, 2.0], [3.0, 1.0]])
        assert procrustes_error(a, 2.5 * a) == pytest.approx(0.0, abs=1e-12)

    def test_displaced_square_matches_grid_search(self):
        a = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
        b = a.copy()
        b[0] += [0.1, 0.0]
        err = procrustes_error(a, b)
        assert err > 0.0
        assert err == pytest.approx(procrustes_grid_oracle(a, b), abs=1e-3)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="differ in size"):
            procrustes_error([[0, 0], [1, 0]], [[0, 0], [1, 0], [2, 0]])

    def test_degenerate_input(self):
        with pytest.raises(ValueError, match="degenerate"):
            procrustes_error([[1, 1], [1, 1]], [[0, 0], [1, 0]])

    @given(
        small_layout(5),
        st.floats(0, 2 * math.pi, allow_nan=False),
        st.floats(0.1, 10.0),
        st.tuples(finite_coord, finite_coord),
    )
    @settings(max_examples=40, deadline=None)
    def test_similarity_transforms_align_exactly(self, layout, angle, scale, shift):
        spread = layout - layout.mean(axis=0)
        if (spread**2).sum() < 1e-6:
            return  # skip near-degenerate draws
        c, s = math.cos(angle), math.sin(angle)
        moved = scale * (layout @ np.array([[c, s], [-s, c]])) + np.asarray(shift)
        assert procrustes_error(layout, moved) < 1e-8
