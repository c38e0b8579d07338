"""Stress minimization by localized majorization.

Each vertex in turn is placed at the weighted average of the positions its
neighbors "want" it at (distance d_ij along the current direction), with
weights d_ij**-2.  That is the minimizer of the convex majorizer of the
single-vertex stress, so a full sweep can never increase stress.  Sweeps
run in fixed index order, each vertex seeing already-updated positions,
which keeps the method deterministic without any seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graphs import DistanceMatrix
from .stress import JITTER_EPSILON, as_layout, stress

# Auxiliary generator seed for the (rare) coincident-point jitter; fixed so
# runs stay deterministic.
_JITTER_SEED = 0x5AC0F

# Default sweep cap, and the relative stress decrease below which a run stops.
MAX_SWEEPS = 500
REL_TOLERANCE = 1e-6


@dataclass(frozen=True)
class SmacofConfig:
    max_iterations: int = MAX_SWEEPS

    def __post_init__(self):
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be positive")


def _reposition(x, target_row, weight_row, diff, lengths) -> np.ndarray:
    """Weighted average of per-neighbor target positions for one vertex."""
    targets = x + target_row[:, None] * (diff / lengths[:, None])
    return (weight_row[:, None] * targets).sum(axis=0) / weight_row.sum()


def vertex_update(i: int, coords, dist: DistanceMatrix) -> np.ndarray:
    """Optimal reposition of vertex i with all other vertices held fixed.

    With a single other vertex the result lands on the ray from that vertex
    through x_i at exactly the target distance.  Raises on coincident
    points; sweep-level callers jitter first.
    """
    x = as_layout(coords, dist.n)
    if dist.n < 2:
        raise ValueError("vertex update needs at least two vertices")
    diff = x[i] - x
    lengths = np.hypot(diff[:, 0], diff[:, 1])
    lengths[i] = 1.0
    if (lengths == 0.0).any():
        raise ValueError(f"vertex {i} coincides with another vertex")
    return _reposition(x, dist.matrix[i], dist.weights[i], diff, lengths)


def smacof_iteration(
    coords,
    dist: DistanceMatrix,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """One majorization sweep: update vertices 0..n-1 sequentially.

    Stress never increases over a sweep.  Coincident pairs are nudged
    apart by JITTER_EPSILON (both points, opposite random directions)
    before the affected update; the jitter generator is fixed-seeded when
    not supplied.
    """
    x = as_layout(coords, dist.n).copy()
    if dist.n < 2:
        raise ValueError("need at least two vertices")
    if rng is None:
        rng = np.random.default_rng(_JITTER_SEED)
    d = dist.matrix
    w = dist.weights
    for i in range(dist.n):
        diff = x[i] - x
        lengths = np.hypot(diff[:, 0], diff[:, 1])
        lengths[i] = 1.0
        coincident = np.nonzero(lengths == 0.0)[0]
        if coincident.size:
            for j in coincident:
                angle = rng.uniform(0.0, 2.0 * math.pi)
                nudge = JITTER_EPSILON * np.array([math.cos(angle), math.sin(angle)])
                x[i] += nudge
                x[j] -= nudge
            diff = x[i] - x
            lengths = np.hypot(diff[:, 0], diff[:, 1])
            lengths[i] = 1.0
        x[i] = _reposition(x, d[i], w[i], diff, lengths)
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
    x = as_layout(init, dist.n).copy()
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
