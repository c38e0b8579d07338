"""Stress minimization by localized majorization.

Each vertex in turn is placed at the weighted average of the positions its
neighbors "want" it at (distance d_ij along the current direction), with
weights d_ij**-2.  That is the minimizer of the convex majorizer of the
single-vertex stress, so a full sweep can never increase stress.  Sweeps
run in fixed index order, each vertex seeing already-updated positions,
which keeps the method deterministic without any seed.

The sweep works on complex coordinates z = x + iy, the view stress.points
of the (n, 2) layout.  Since the normalized weights of a row sum to 1,
the weighted average is a move of vertex i by one dot product:

    z_i <- z_i + (c . (z_i - z)) / s_i
    c_j = 1 / (d_ij |z_i - z_j|) - 1 / d_ij**2,   s_i = sum_j d_ij**-2

The rows of 1/d (diagonal zeroed), their squares and the sums s_i are
read from the distance matrix SWEEP_ROWS rows at a time, so a run holds
no n x n array of its own.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graphs import DistanceMatrix
from .stress import as_layout, points, separate, stress

# Auxiliary generator seed for the (rare) coincident-point jitter; fixed so
# runs stay deterministic.
_JITTER_SEED = 0x5AC0F

# A sweep reads this many rows of the distance matrix at a time: one read
# per vertex costs more numpy calls, a whole matrix n x n memory.  At the
# paper's n = 100 a sweep reads one block, about 4 % faster than two.
SWEEP_ROWS = 100

# Default sweep cap, and the relative stress decrease below which a run stops.
MAX_SWEEPS = 500
REL_TOLERANCE = 1e-6


@dataclass(frozen=True)
class SmacofConfig:
    max_iterations: int = MAX_SWEEPS

    def __post_init__(self):
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be positive")


def _inverse_rows(d, start: int, inverse, squares):
    """Rows of 1/d in float64 with the diagonal zeroed, for the block d of
    the matrix's rows from start, and their squares, written to the
    leading rows of the buffers inverse and squares; returns the two
    written blocks and the squares' row sums (a list)."""
    inverse, squares = inverse[:len(d)], squares[:len(d)]
    np.divide(1.0, d, out=inverse)
    np.fill_diagonal(inverse[:, start:], 0.0)
    np.square(inverse, out=squares)
    return inverse, squares, squares.sum(axis=1).tolist()


def smacof_iteration(coords, dist: DistanceMatrix, rng: np.random.Generator | None = None) -> np.ndarray:
    """One majorization sweep: update vertices 0..n-1 sequentially.

    Takes and returns an (n, 2) layout, updated through its complex view
    stress.points.  Stress never increases over a sweep.  When vertex i
    coincides with k others, stress.separate nudges the k pairs apart
    (one angle per pair, in index order) before its update; the jitter
    generator is fixed-seeded when not supplied.  The offsets, their
    lengths and the coefficients go to buffers allocated once per sweep.
    """
    x = as_layout(coords, dist.n)
    n = dist.n
    if n < 2:
        raise ValueError("need at least two vertices")
    if rng is None:
        rng = np.random.default_rng(_JITTER_SEED)
    z = points(x)
    diff, lengths, coef = np.empty(n, complex), np.empty(n), np.zeros(n, complex)
    coef_re = coef.real  # c is real: written through this view, read by the complex dot
    buffers = np.empty((2, min(n, SWEEP_ROWS), n))
    subtract, absolute, divide, dot = np.subtract, np.abs, np.divide, np.dot  # per-vertex calls
    with np.errstate(divide="ignore", invalid="ignore"):
        for start in range(0, n, SWEEP_ROWS):
            block = _inverse_rows(dist.matrix[start:start + SWEEP_ROWS], start, *buffers)
            for i, inverse_row, square_row, total in zip(range(start, n), *block):
                for retry in (False, True):
                    zi = z[i]
                    subtract(zi, z, out=diff)
                    absolute(diff, out=lengths)
                    lengths[i] = 1.0
                    divide(inverse_row, lengths, out=coef_re)
                    subtract(coef_re, square_row, out=coef_re)
                    # a coincident neighbor has an infinite coefficient and a
                    # zero offset, so the dot is NaN
                    step = dot(coef, diff)
                    if step == step or retry:
                        break
                    j = np.nonzero(lengths == 0.0)[0]
                    separate(z, np.full(len(j), i), j, rng)
                z[i] = zi + step / total
    return x


def run_smacof(
    dist: DistanceMatrix,
    init,
    config: SmacofConfig = SmacofConfig(),
    callback=None,
):
    """Iterate majorization sweeps until the stress decrease stalls.

    Stops when the relative decrease falls below REL_TOLERANCE or after
    config.max_iterations sweeps.  Returns (layout, trace) with
    trace[0] the initial stress; the trace is non-increasing from index 1.
    ``callback(t, layout)`` fires after each sweep with 1-based t.
    """
    x = as_layout(init, dist.n)
    rng = np.random.default_rng(_JITTER_SEED)
    previous = stress(x, dist)
    trace = [previous]
    for sweep in range(config.max_iterations):
        x = smacof_iteration(x, dist, rng)
        current = stress(x, dist)
        trace.append(current)
        if callback is not None:
            callback(sweep + 1, x.copy())
        if previous <= 0.0 or (previous - current) / previous < REL_TOLERANCE:
            break
        previous = current
    return x, trace
