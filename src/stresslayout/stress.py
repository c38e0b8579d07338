"""The stress objective over 2D layouts, its gradient, and layout utilities.

A layout is a plain (n, 2) float array, which both optimizers move as n
complex numbers x + iy (points) and whose coincident points they nudge
apart (separate).  Stress sums, over unordered vertex pairs, the squared
deviation of layout distance from target distance, weighted by the
inverse squared target:

    sum_{i<j} (|x_i - x_j| - d_ij)**2 / d_ij**2
"""

from __future__ import annotations

import math

import numpy as np

from .graphs import DistanceMatrix

# Both optimizers nudge coincident points this far apart before an update
# whose direction would otherwise be undefined.
JITTER_EPSILON = 1e-6


def as_layout(coords, n: int | None = None) -> np.ndarray:
    """Validate coordinates and return them as a new C-ordered (n, 2) float64 array."""
    x = np.array(coords, dtype=float, order="C")
    if x.ndim != 2 or x.shape[1] != 2:
        raise ValueError(f"layout must have shape (n, 2), got {x.shape}")
    if n is not None and x.shape[0] != n:
        raise ValueError(f"layout has {x.shape[0]} points, expected {n}")
    if not np.isfinite(x).all():
        raise ValueError("layout contains non-finite coordinates")
    return x


def points(x: np.ndarray) -> np.ndarray:
    """The rows of a C-ordered (n, 2) layout as n complex numbers x + iy (a view)."""
    return x.view(np.complex128).reshape(-1)


def separate(z, i, j, rng: np.random.Generator) -> None:
    """Nudge the points of each pair (i[k], j[k]) apart by JITTER_EPSILON, in place.

    z[i[k]] moves along the pair's uniform angle from rng and z[j[k]] the
    opposite way; a repeated index takes its nudges in pair order.
    """
    nudge = JITTER_EPSILON * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, len(j)))
    np.add.at(z, i, nudge)
    np.subtract.at(z, j, nudge)


def stress(coords, dist: DistanceMatrix) -> float:
    """Weighted squared deviation of layout distances from targets.

    Terms are accumulated in fixed i<j lexicographic order with exact
    compensated summation, so the value is reproducible bit-for-bit.
    """
    x = as_layout(coords, dist.n)
    i, j, target = dist.pairs
    xs, ys = x.T
    lengths = np.hypot(xs[i] - xs[j], ys[i] - ys[j])
    terms = ((lengths - target) / target) ** 2
    return math.fsum(memoryview(terms))


def stress_gradient(coords, dist: DistanceMatrix) -> np.ndarray:
    """Analytic gradient of stress, one (dx, dy) row per vertex.

    Sums each pair's pull over DistanceMatrix.pairs into both endpoints.
    Undefined where two points coincide; raises ValueError there.
    """
    x = as_layout(coords, dist.n)
    i, j, target = dist.pairs
    z = points(x)
    delta = z[i] - z[j]
    lengths = np.abs(delta)
    if (lengths == 0.0).any():
        raise ValueError("coincident points: gradient term is singular")
    pull = 2.0 * (lengths - target) / (target**2 * lengths) * delta
    gradient = np.zeros(dist.n, dtype=complex)
    np.add.at(gradient, i, pull)
    np.subtract.at(gradient, j, pull)
    return gradient.view(float).reshape(-1, 2)


def procrustes_error(a, b) -> float:
    """RMS residual after optimally mapping layout b onto layout a.

    The map is the best similarity transform: translation, rotation or
    reflection, and uniform scaling.  Zero means the layouts agree up to
    such a transform.
    """
    xa = as_layout(a)
    xb = as_layout(b)
    if xa.shape[0] != xb.shape[0]:
        raise ValueError(f"layouts differ in size: {xa.shape[0]} vs {xb.shape[0]}")
    if xa.shape[0] < 2:
        raise ValueError("need at least two points")
    ac = xa - xa.mean(axis=0)
    bc = xb - xb.mean(axis=0)
    norm_a = (ac**2).sum()
    norm_b = (bc**2).sum()
    if norm_a == 0.0 or norm_b == 0.0:
        raise ValueError("degenerate layout: all points coincide")
    u, sigma, vt = np.linalg.svd(bc.T @ ac)
    rotation = (u @ vt).T
    scale = sigma.sum() / norm_b
    residual = ac - scale * (bc @ rotation.T)
    return math.sqrt((residual**2).sum() / xa.shape[0])
