"""Stress minimization by localized majorization.

Each vertex in turn is placed at the weighted average of the positions its
neighbors "want" it at (distance d_ij along the current direction), with
weights d_ij**-2.  That is the minimizer of the convex majorizer of the
single-vertex stress, so a full sweep can never increase stress.  Sweeps
run in fixed index order, each vertex seeing already-updated positions,
which keeps the method deterministic without any seed.

The sweep works on complex coordinates z = x + iy, the view stress.points
of the (n, 2) layout.  With the row-normalized weights wn = weights(dist)
(each row sums to 1; built once per run_smacof call and dropped with
it), the update of vertex i is two dot products:

    z_i <- wn_i . z + (wn_i * d_i / |z_i - z|) . (z_i - z)

The coefficient row is formed per vertex, not cached; the target rows
d_i are cast from the matrix's dtype to float64 SWEEP_ROWS at a time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graphs import DistanceMatrix
from .stress import as_layout, points, separate, stress

# Auxiliary generator seed for the (rare) coincident-point jitter; fixed so
# runs stay deterministic.
_JITTER_SEED = 0x5AC0F

# A sweep casts this many rows of the distance matrix to float64 at a time:
# one cast per vertex costs more than the mixed-type products it saves.
SWEEP_ROWS = 64

# Default sweep cap, and the relative stress decrease below which a run stops.
MAX_SWEEPS = 500
REL_TOLERANCE = 1e-6


@dataclass(frozen=True)
class SmacofConfig:
    max_iterations: int = MAX_SWEEPS

    def __post_init__(self):
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be positive")


def weights(dist: DistanceMatrix) -> np.ndarray:
    """Row-normalized stress weights, zero on the diagonal.

    Entry (i, j) is d_ij**-2 / sum_k d_ik**-2, so each row sums to 1
    (for n >= 2); majorization places vertex i at the weighted average
    its row describes.  The squares are taken in float64, whatever the
    matrix's dtype.
    """
    w = np.square(dist.matrix, dtype=np.float64)
    np.fill_diagonal(w, 1.0)
    np.divide(1.0, w, out=w)
    np.fill_diagonal(w, 0.0)
    if dist.n > 1:
        w /= w.sum(axis=1, keepdims=True)
    return w


def _place(z, weight_row, target_row, diff, lengths) -> complex:
    """Weighted average of one vertex's per-neighbor targets (weights sum to 1).

    A zero length (a coincident neighbor) makes the result NaN: its
    coefficient is infinite and its offset zero.
    """
    return weight_row @ z + (weight_row * target_row / lengths) @ diff


def _offsets(i: int, z):
    """Offsets z_i - z and their lengths, with lengths[i] set to 1."""
    diff = z[i] - z
    lengths = np.abs(diff)
    lengths[i] = 1.0
    return diff, lengths


def smacof_iteration(
    coords,
    dist: DistanceMatrix,
    wn: np.ndarray,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """One majorization sweep: update vertices 0..n-1 sequentially.

    Takes and returns an (n, 2) layout, updated through its complex view
    stress.points; wn is weights(dist).  Stress never increases over a
    sweep.  When vertex i coincides with k others, stress.separate nudges
    the k pairs apart (one angle per pair, in index order) before its
    update; the jitter generator is fixed-seeded when not supplied.
    Target rows are read as float64 SWEEP_ROWS rows at a time.
    """
    x = as_layout(coords, dist.n)
    if dist.n < 2:
        raise ValueError("need at least two vertices")
    if rng is None:
        rng = np.random.default_rng(_JITTER_SEED)
    z = points(x)
    d = dist.matrix
    with np.errstate(divide="ignore", invalid="ignore"):
        for start in range(0, dist.n, SWEEP_ROWS):
            rows = d[start:start + SWEEP_ROWS].astype(np.float64, copy=False)
            for i, target_row in enumerate(rows, start):
                diff, lengths = _offsets(i, z)
                zi = _place(z, wn[i], target_row, diff, lengths)
                if zi != zi:  # NaN: vertex i coincides with another vertex
                    j = np.nonzero(lengths == 0.0)[0]
                    separate(z, np.full(len(j), i), j, rng)
                    diff, lengths = _offsets(i, z)
                    zi = _place(z, wn[i], target_row, diff, lengths)
                z[i] = zi
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
    wn = weights(dist)
    trace = [previous]
    for sweep in range(config.max_iterations):
        x = smacof_iteration(x, dist, wn, rng)
        current = stress(x, dist)
        trace.append(current)
        if callback is not None:
            callback(sweep + 1, x.copy())
        if previous <= 0.0 or (previous - current) / previous < REL_TOLERANCE:
            break
        previous = current
    return x, trace
