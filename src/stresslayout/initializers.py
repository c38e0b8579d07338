"""Initial layouts: uniform random, classical MDS, and PivotMDS.

Classical MDS double-centers the squared distance matrix and embeds along
the top two eigenvectors, scaled by the square roots of the eigenvalues.
PivotMDS approximates it from distances to k pivot vertices only, which
needs k BFS traversals instead of a full distance matrix.  Both use power
iteration with deflation and share a sign convention (first nonzero
component of each direction positive) so repeated runs are bit-identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graphs import DisconnectedGraphError, DistanceMatrix, Graph, bfs_hops

# Fixed stream for power-iteration start vectors: deterministic, and fresh
# draws per eigenpair so a deflated matrix never restarts exactly
# orthogonal to its dominant eigenvector.
_POWER_SEED = 0x9E3779B9

_SIGN_EPS = 1e-12

# Power-iteration stopping rule; see _power_iteration.
POWER_TOLERANCE = 1e-9
POWER_MAX_ITERS = 100_000

# Default PivotMDS pivot count.
PIVOTS = 100


class PowerIterationError(RuntimeError):
    """Power iteration ran out of iterations; .partial holds the layout so far."""

    def __init__(self, message: str, partial: np.ndarray):
        super().__init__(message)
        self.partial = partial


@dataclass(frozen=True)
class PivotConfig:
    k: int = PIVOTS
    seed: int = 0

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("pivot count must be positive")


def random_init(n: int, seed: int) -> np.ndarray:
    """n points i.i.d. uniform in the unit square; deterministic per seed."""
    if n < 1:
        raise ValueError("n must be positive")
    return np.random.default_rng(seed).random((n, 2))


def _power_iteration(matrix, rng, scale=None):
    """Dominant eigenpair of a symmetric matrix.

    Stops when the residual |Av - lambda v| drops below POWER_TOLERANCE *
    scale (scale defaults to |lambda|), or after POWER_MAX_ITERS steps.
    The residual bound, rather than the raw direction change per step, is
    what controls the embedding error when eigenvalues are nearly tied.
    Returns (lambda, v, converged).
    """
    v = rng.standard_normal(matrix.shape[0])
    v /= np.linalg.norm(v)
    lam = 0.0
    for _ in range(POWER_MAX_ITERS):
        w = matrix @ v
        lam = float(v @ w)
        bound = POWER_TOLERANCE * max(abs(lam) if scale is None else scale, 1e-300)
        if np.linalg.norm(w - lam * v) <= bound:
            return lam, v, True
        norm_w = np.linalg.norm(w)
        if norm_w < 1e-300:
            return 0.0, v, True
        v = w / norm_w
    return lam, v, False


def _top2(matrix, shifted=False):
    """Two largest eigenpairs, by descending eigenvalue: power iteration
    with deflation finds the two of largest magnitude, so if one of them is
    negative beyond the solver tolerance (the smallest eigenvalue) the
    matrix is shifted by it to make every eigenvalue nonnegative and solved
    again."""
    rng = np.random.default_rng(_POWER_SEED)
    lam1, v1, ok1 = _power_iteration(matrix, rng)
    deflated = matrix - lam1 * np.outer(v1, v1)
    lam2, v2, ok2 = _power_iteration(deflated, rng, scale=abs(lam1))
    pairs = sorted([(lam1, v1), (lam2, v2)], key=lambda p: -p[0])
    low = pairs[1][0]
    if shifted or low >= -POWER_TOLERANCE * abs(lam1):
        return pairs, ok1 and ok2
    matrix = matrix.copy()
    matrix.flat[:: len(matrix) + 1] -= low
    pairs, ok = _top2(matrix, shifted=True)
    return [(lam + low, v) for lam, v in pairs], ok1 and ok2 and ok


def _fix_sign(v: np.ndarray) -> np.ndarray:
    """Flip so the first component of magnitude above noise is positive."""
    for component in v:
        if abs(component) > _SIGN_EPS:
            return v if component > 0 else -v
    return v


def classical_mds(dist: DistanceMatrix) -> np.ndarray:
    """Spectral embedding of a distance matrix into the plane.

    Double-centers the entrywise-squared matrix and returns, per vertex,
    the top-2 eigenvector components scaled by sqrt(max(eigenvalue, 0)).
    Raises PowerIterationError (carrying the partial layout) if the
    eigensolver does not converge.
    """
    if dist.n < 2:
        raise ValueError("classical MDS needs at least two vertices")
    b = _double_center(dist.matrix**2)
    pairs, converged = _top2(b)
    columns = [
        _fix_sign(v) * math.sqrt(max(lam, 0.0)) for lam, v in pairs
    ]
    layout = np.column_stack(columns)
    if not converged:
        raise PowerIterationError(
            f"eigensolver did not converge within {POWER_MAX_ITERS} iterations", layout
        )
    return layout


def _pivots_with_rows(graph, k, seed):
    """k pivot vertices by max-min hop distance, with their BFS rows.

    The first pivot is drawn uniformly from the seed; each further pivot
    maximizes the distance to the already-chosen set, ties going to the
    lowest vertex index.
    """
    if not 1 <= k <= graph.n:
        raise ValueError(f"pivot count must be in 1..{graph.n}, got {k}")
    first = int(np.random.default_rng(seed).integers(graph.n))
    pivots = [first]
    rows = [_hops_row(graph, first)]
    nearest = rows[0]
    while len(pivots) < k:
        p = int(np.argmax(nearest))  # argmax takes the lowest index on ties
        pivots.append(p)
        rows.append(_hops_row(graph, p))
        nearest = np.minimum(nearest, rows[-1])
    return pivots, rows


def pivot_mds(graph: Graph, config: PivotConfig = PivotConfig()) -> np.ndarray:
    """PivotMDS layout from BFS distances to at most config.k max-min pivots.

    Uses min(config.k, n) pivots.  The squared pivot-distance columns are
    double-centered and the layout read off the top-2 left singular
    directions, column-scaled to match classical MDS when every vertex is
    a pivot.
    """
    n = graph.n
    if n < 2:
        raise ValueError("PivotMDS needs at least two vertices")
    _, rows = _pivots_with_rows(graph, min(config.k, n), config.seed)
    c = _double_center(np.array(rows).T ** 2)  # (n, k)
    pairs, converged = _top2(c.T @ c)
    columns = []
    for _, v in pairs:
        cv = c @ v
        sigma = float(np.linalg.norm(cv))
        if sigma < 1e-300:
            columns.append(np.zeros(n))
            continue
        columns.append(_fix_sign(cv / sigma) * math.sqrt(sigma))
    layout = np.column_stack(columns)
    if not converged:
        raise PowerIterationError(
            f"eigensolver did not converge within {POWER_MAX_ITERS} iterations", layout
        )
    return layout


def _double_center(squared: np.ndarray) -> np.ndarray:
    return -0.5 * (
        squared
        - squared.mean(axis=0, keepdims=True)
        - squared.mean(axis=1, keepdims=True)
        + squared.mean()
    )


def _hops_row(graph: Graph, source: int) -> np.ndarray:
    hops = bfs_hops(graph, source)
    if -1 in hops:
        raise DisconnectedGraphError(
            f"vertex {hops.index(-1)} unreachable from pivot {source}"
        )
    return np.array(hops, dtype=float)
