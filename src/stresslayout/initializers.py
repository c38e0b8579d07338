"""Initial layouts: uniform random, classical MDS, and PivotMDS.

Classical MDS double-centers the squared distance matrix and embeds along
the top two eigenvectors, scaled by the square roots of the eigenvalues.
PivotMDS approximates it from distances to k pivot vertices only, which
needs k BFS traversals instead of a full distance matrix.  Both take their
top two eigenpairs from one two-column orthogonal iteration (_top2) and
share a sign convention (first nonzero component of each direction
positive), so repeated runs are bit-identical.
"""

from __future__ import annotations

import math

import numpy as np

from .graphs import DisconnectedGraphError, DistanceMatrix, Graph, bfs_hops, neighbour_rows

# Fixed stream for the eigensolver's start vectors: deterministic, with
# fresh draws for the shifted restart, because the vectors the unshifted
# iteration converged to can lack a tied top direction entirely.
_POWER_SEED = 0x9E3779B9

_SIGN_EPS = 1e-12

# Eigensolver stopping rule; see _top2.
POWER_TOLERANCE = 1e-9
POWER_MAX_ITERS = 100_000

# Default PivotMDS pivot count.
PIVOTS = 100


class PowerIterationError(ValueError):
    """The eigensolver ran out of iterations (the CLI exits 1)."""


def random_init(n: int, seed: int) -> np.ndarray:
    """n points i.i.d. uniform in the unit square; deterministic per seed."""
    if n < 1:
        raise ValueError("n must be positive")
    return np.random.default_rng(seed).random((n, 2))


def _top2(matrix):
    """Two largest eigenpairs of a symmetric matrix: the eigenvalues in
    descending order and their unit eigenvectors as the rows of a (2, n)
    array.

    Orthogonal iteration on two vectors: orthonormalize (QR), multiply,
    and rotate by the eigenvectors of the projected 2 x 2 matrix
    (Rayleigh-Ritz).  Each Ritz pair converges at the ratio of the third
    eigenvalue to its own, so a near tie between the top two costs
    nothing.  Stops when both residuals |Av - lambda v| are at most
    POWER_TOLERANCE * max |lambda|; the residual, not the change per
    step, is what bounds the embedding error.  The iteration finds the
    two eigenvalues of largest magnitude, so if one of them is negative
    beyond the tolerance it is the smallest, and the iteration restarts
    from fresh vectors on the matrix shifted by it (applied per product,
    not copied), whose top two are the largest.  Raises
    PowerIterationError after POWER_MAX_ITERS steps.
    """
    rng = np.random.default_rng(_POWER_SEED)
    shift = 0.0
    while True:
        w = rng.standard_normal((2, len(matrix)))
        for _ in range(POWER_MAX_ITERS):
            v = np.linalg.qr(w.T)[0].T
            # v @ matrix is (matrix @ v.T).T for a symmetric matrix, and
            # cheaper as a product with a 2 x n left factor
            w = v @ matrix - shift * v
            lam, rotation = np.linalg.eigh(w @ v.T)  # ascending
            v, w = rotation.T @ v, rotation.T @ w
            bound = POWER_TOLERANCE * np.abs(lam).max()
            if (np.linalg.norm(w - lam[:, None] * v, axis=1) <= bound).all():
                break
        else:
            raise PowerIterationError(
                f"eigensolver did not converge within {POWER_MAX_ITERS} iterations"
            )
        if shift or lam[0] >= -bound:
            return lam[::-1] + shift, v[::-1]
        shift = lam[0]


def _fix_sign(v: np.ndarray) -> np.ndarray:
    """Flip so the first component of magnitude above noise is positive."""
    for component in v:
        if abs(component) > _SIGN_EPS:
            return v if component > 0 else -v
    return v


def classical_mds(dist: DistanceMatrix) -> np.ndarray:
    """Spectral embedding of a distance matrix into the plane.

    Double-centers the entrywise-squared matrix, squared in float64 (a
    uint8 or uint16 square would wrap), and returns, per vertex,
    the top-2 eigenvector components scaled by sqrt(max(eigenvalue, 0)).
    Raises PowerIterationError if the eigensolver does not converge.
    """
    if dist.n < 2:
        raise ValueError("classical MDS needs at least two vertices")
    lam, v = _top2(_double_center(np.square(dist.matrix, dtype=np.float64)))
    return np.column_stack([_fix_sign(u) * math.sqrt(max(l, 0.0)) for l, u in zip(lam, v)])


def _pivots_with_rows(graph, k, seed):
    """k pivot vertices by max-min hop distance, with their BFS rows.

    The first pivot is drawn uniformly from the seed; each further pivot
    maximizes the distance to the already-chosen set, ties going to the
    lowest vertex index.  The k searches share one neighbour_rows list,
    built for this call and dropped with it.
    """
    neighbours = neighbour_rows(graph)
    first = int(np.random.default_rng(seed).integers(graph.n))
    pivots = [first]
    rows = [_hops_row(neighbours, first)]
    nearest = rows[0]
    while len(pivots) < k:
        p = int(np.argmax(nearest))  # argmax takes the lowest index on ties
        pivots.append(p)
        rows.append(_hops_row(neighbours, p))
        nearest = np.minimum(nearest, rows[-1])
    return pivots, rows


def pivot_mds(graph: Graph, k: int = PIVOTS, seed: int = 0) -> np.ndarray:
    """PivotMDS layout from BFS distances to at most k max-min pivots.

    Uses min(k, n) pivots, the first drawn from seed.  The squared
    pivot-distance columns are double-centered and the layout read off
    the top-2 left singular directions, column-scaled to match classical
    MDS when every vertex is a pivot.  One pivot's double-centered column is zero, so with k = 1
    every vertex sits at the origin.
    """
    if k < 1:
        raise ValueError("pivot count must be positive")
    if seed < 0:
        raise ValueError(f"seed must be nonnegative, got {seed}")
    n = graph.n
    if n < 2:
        raise ValueError("PivotMDS needs at least two vertices")
    k = min(k, n)
    _, rows = _pivots_with_rows(graph, k, seed)
    if k == 1:
        return np.zeros((n, 2))
    c = _double_center(np.array(rows).T ** 2)  # (n, k)
    columns = []
    for v in _top2(c.T @ c)[1]:
        cv = c @ v
        sigma = float(np.linalg.norm(cv))
        if sigma < 1e-300:
            columns.append(np.zeros(n))
            continue
        columns.append(_fix_sign(cv / sigma) * math.sqrt(sigma))
    return np.column_stack(columns)


def _double_center(squared: np.ndarray) -> np.ndarray:
    """-0.5 * (squared - column means - row means + mean), in place: the
    row means of the column-centered matrix are the row means less the
    mean."""
    squared -= squared.mean(axis=0, keepdims=True)
    squared -= squared.mean(axis=1, keepdims=True)
    squared *= -0.5
    return squared


def _hops_row(neighbours, source: int) -> np.ndarray:
    hops = bfs_hops(neighbours, source)
    if -1 in hops:
        raise DisconnectedGraphError(
            f"vertex {hops.index(-1)} unreachable from pivot {source}"
        )
    return np.array(hops, dtype=float)
