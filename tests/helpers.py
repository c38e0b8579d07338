"""Shared test utilities: independent oracles and instance generators.

Every oracle here deliberately avoids the code paths it is used to check:
set-and-tuple edge normalization vs Graph.from_edges's sorted numpy keys,
Floyd-Warshall vs per-source BFS, dense eigendecomposition vs power
iteration, an (n, 2) weighted-average majorization sweep vs the
complex-coordinate one, one math.fsum over all pair terms vs stress's
blocked integer-bin sum, the scalar pair_update (math.hypot, one pair
at a time) vs run_sgd's vectorized complex rounds, and the modulo
circle formula with whole-iteration gathers from a full round table vs
run_sgd's chunked window gathers over the slot ring.

No run needs the rest, so they live here rather than in the package:
stress_gradient, the analytic gradient summed over the pair table,
which finite differences of stress and the dense (n, n) formula
check; and procrustes_error, the closed-form similarity fit that
compares layouts up to rotation, reflection, scale and shift, which a
rotation grid search checks.
"""

from __future__ import annotations

import math

import numpy as np

from stresslayout import DistanceMatrix, Graph, stress
from stresslayout.sgd import _round, step_widths
from stresslayout.smacof import _offsets, _place, weights
from stresslayout.stress import JITTER_EPSILON, as_layout, points


def random_connected_graph(n: int, extra_edges: int, seed: int) -> Graph:
    """Random tree on n vertices plus extra random edges; always connected."""
    rng = np.random.default_rng(seed)
    order = rng.permutation(n).tolist()
    edges = set()
    for k in range(1, n):
        a, b = order[int(rng.integers(0, k))], order[k]
        edges.add((min(a, b), max(a, b)))
    for _ in range(extra_edges):
        a, b = (int(v) for v in rng.integers(0, n, 2))
        if a != b:
            edges.add((min(a, b), max(a, b)))
    return Graph.from_edges(n, sorted(edges))


def reference_from_edges(n: int, edges) -> tuple[tuple, tuple]:
    """Graph.from_edges normalization with sets and tuples of Python ints.

    Returns (edges, adjacency): each edge once as a sorted (i, j) pair
    with i < j, in sorted order, and the per-vertex sorted neighbour
    tuple, as the graph's CSR rows must read.
    """
    cleaned = set()
    for i, j in edges:
        i, j = int(i), int(j)
        if not (0 <= i < n and 0 <= j < n):
            raise ValueError(f"edge ({i},{j}) out of range for n={n}")
        if i == j:
            continue
        cleaned.add((i, j) if i < j else (j, i))
    edge_tuple = tuple(sorted(cleaned))
    neighbors: list[list[int]] = [[] for _ in range(n)]
    for i, j in edge_tuple:
        neighbors[i].append(j)
        neighbors[j].append(i)
    return edge_tuple, tuple(tuple(sorted(a)) for a in neighbors)


def floyd_warshall(g: Graph) -> np.ndarray:
    """Brute-force all-pairs hop distances; inf where unreachable."""
    big = math.inf
    d = [[0.0 if i == j else big for j in range(g.n)] for i in range(g.n)]
    for i, j in g.edges:
        d[i][j] = d[j][i] = 1.0
    for k in range(g.n):
        dk = d[k]
        for i in range(g.n):
            dik = d[i][k]
            if dik == big:
                continue
            di = d[i]
            for j in range(g.n):
                alt = dik + dk[j]
                if alt < di[j]:
                    di[j] = alt
    return np.array(d)


def reference_stress(coords, dist: DistanceMatrix) -> float:
    """Stress from every pair term at once, summed by math.fsum.

    Lengths are np.abs of complex differences, as in stress itself, so a
    mismatch points at the summation.
    """
    x = np.array(coords, dtype=float)
    z = x[:, 0] + 1j * x[:, 1]
    i, j, target = dist.pairs
    lengths = np.abs(z[i] - z[j])
    return math.fsum(memoryview(((lengths - target) / target) ** 2))


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


def finite_difference_gradient(coords, dist: DistanceMatrix, h: float = 1e-6) -> np.ndarray:
    """Central finite differences of the stress objective."""
    x = np.array(coords, dtype=float)
    grad = np.zeros_like(x)
    for i in range(x.shape[0]):
        for axis in range(2):
            forward = x.copy()
            backward = x.copy()
            forward[i, axis] += h
            backward[i, axis] -= h
            grad[i, axis] = (stress(forward, dist) - stress(backward, dist)) / (2.0 * h)
    return grad


def dense_stress_gradient(coords, dist: DistanceMatrix) -> np.ndarray:
    """Stress gradient from full (n, n) difference arrays.

    Row i is sum_{j != i} 2 (|x_i - x_j| - d_ij) / (d_ij**2 |x_i - x_j|)
    (x_i - x_j); the identity keeps the diagonal's 0 / 0 out.
    """
    x = np.array(coords, dtype=float)
    d = dist.matrix
    eye = np.eye(dist.n)
    diff = x[:, None, :] - x[None, :, :]
    lengths = np.hypot(diff[..., 0], diff[..., 1])
    coef = 2.0 * (lengths - d) / ((d + eye) ** 2 * (lengths + eye))
    np.fill_diagonal(coef, 0.0)
    return (coef[:, :, None] * diff).sum(axis=1)


def cmds_eigh_oracle(dist: DistanceMatrix) -> np.ndarray:
    """Classical scaling via dense symmetric eigendecomposition."""
    d2 = dist.matrix**2
    n = dist.n
    j = np.eye(n) - np.ones((n, n)) / n
    b = -0.5 * j @ d2 @ j
    eigenvalues, eigenvectors = np.linalg.eigh(b)
    top = np.argsort(eigenvalues)[::-1][:2]
    columns = [
        eigenvectors[:, idx] * math.sqrt(max(float(eigenvalues[idx]), 0.0)) for idx in top
    ]
    return np.column_stack(columns)


def top_eigenvalues(dist: DistanceMatrix, count: int = 4) -> np.ndarray:
    """Largest eigenvalues of the double-centered squared-distance matrix."""
    d2 = dist.matrix**2
    n = dist.n
    j = np.eye(n) - np.ones((n, n)) / n
    b = -0.5 * j @ d2 @ j
    return np.sort(np.linalg.eigvalsh(b))[::-1][:count]


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


def procrustes_grid_oracle(a, b, angles: int = 4000) -> float:
    """Best RMS over discretized rotations/reflections with optimal scale."""
    xa = np.asarray(a, dtype=float)
    xb = np.asarray(b, dtype=float)
    ac = xa - xa.mean(axis=0)
    bc = xb - xb.mean(axis=0)
    best = math.inf
    for reflect in (1.0, -1.0):
        flipped = bc.copy()
        flipped[:, 1] *= reflect
        for theta in np.linspace(0.0, 2.0 * math.pi, angles, endpoint=False):
            c, s = math.cos(theta), math.sin(theta)
            rotated = flipped @ np.array([[c, s], [-s, c]])
            scale = float((rotated * ac).sum() / (rotated**2).sum())
            best = min(best, float(((ac - scale * rotated) ** 2).sum()))
    return math.sqrt(best / xa.shape[0])


def euclidean_distance_matrix(points) -> DistanceMatrix:
    """Exact pairwise Euclidean distances of a 2D point set."""
    p = np.asarray(points, dtype=float)
    diff = p[:, None, :] - p[None, :, :]
    return DistanceMatrix(np.hypot(diff[..., 0], diff[..., 1]))


def reference_sweep(coords, dist: DistanceMatrix, rng: np.random.Generator) -> np.ndarray:
    """One localized majorization sweep on (n, 2) real coordinates.

    Vertex i moves to sum_j w_ij (x_j + d_ij (x_i - x_j) / |x_i - x_j|)
    / sum_j w_ij with w_ij = d_ij**-2, computed here from the distances
    alone.  Coincident pairs are jittered as the library documents: one
    uniform angle per pair from rng, in index order, before the update.
    """
    x = np.array(coords, dtype=float)
    d = dist.matrix
    off = ~np.eye(dist.n, dtype=bool)
    w = np.zeros_like(d)
    w[off] = d[off] ** -2.0

    def offsets(i):
        diff = x[i] - x
        lengths = np.hypot(diff[:, 0], diff[:, 1])
        lengths[i] = 1.0
        return diff, lengths

    for i in range(dist.n):
        diff, lengths = offsets(i)
        coincident = np.nonzero(lengths == 0.0)[0]
        if coincident.size:
            for j in coincident:
                angle = rng.uniform(0.0, 2.0 * math.pi)
                nudge = JITTER_EPSILON * np.array([math.cos(angle), math.sin(angle)])
                x[i] += nudge
                x[j] -= nudge
            diff, lengths = offsets(i)
        targets = x + d[i][:, None] * (diff / lengths[:, None])
        x[i] = (w[i][:, None] * targets).sum(axis=0) / w[i].sum()
    return x


def vertex_update(i: int, coords, dist: DistanceMatrix) -> np.ndarray:
    """Optimal reposition of vertex i with all other vertices held fixed.

    The same arithmetic as one step of smacof_iteration (_offsets and
    _place), so a sweep equals n of these in index order bit for bit.
    With a single other vertex the result lands on the ray from that
    vertex through x_i at exactly the target distance.  Raises on
    coincident points.
    """
    x = as_layout(coords, dist.n)
    if dist.n < 2:
        raise ValueError("vertex update needs at least two vertices")
    z = points(x)
    diff, lengths = _offsets(i, z)
    if not lengths.all():
        raise ValueError(f"vertex {i} coincides with another vertex")
    zi = _place(z, weights(dist)[i], dist.matrix[i], diff, lengths)
    return np.array([zi.real, zi.imag])


def pair_update(p, q, d: float, mu: float):
    """Move a single pair toward its target distance d by fraction mu.

    Shrinks or extends the segment p--q symmetrically: with mu = 1 the new
    distance is exactly d, and the midpoint is preserved exactly for any mu.
    Returns the two new points.
    """
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    delta = p - q
    length = math.hypot(float(delta[0]), float(delta[1]))
    if length <= 0.0:
        raise ValueError("coincident pair: update direction is undefined")
    move = (0.5 * mu * (length - d) / length) * delta
    return p - move, q + move


def circle_rounds(n: int, rounds):
    """Slot rows of the given rounds of a circle-method round robin.

    The textbook formula, with m = n rounded up to even: row r pairs slot
    (r + k) % (m - 1) with slot (r - k) % (m - 1) for k = 0 .. m/2 - 1,
    except that slot m - 1 stays fixed and meets slot r in column 0.
    For odd n that fixed slot is a bye, so column 0 is dropped.
    """
    m = n + n % 2
    r = np.asarray(rounds)[:, None]
    k = np.arange(m // 2)
    a = (r + k) % (m - 1)
    b = (r - k) % (m - 1)
    b[:, 0] = m - 1
    if n % 2:
        return a[:, 1:], b[:, 1:]
    return a, b


def reference_sgd(dist: DistanceMatrix, init, config) -> tuple[np.ndarray, list[float]]:
    """run_sgd with the whole round table built once and gathered per iteration.

    The random stream is the documented one: per iteration a vertex
    permutation, a round permutation, then jitter as rounds meet
    coincident pairs.
    """
    x = as_layout(init, dist.n)
    rng = np.random.default_rng(config.seed)
    slot_a, slot_b = circle_rounds(dist.n, np.arange(dist.n - 1 + dist.n % 2))
    z = points(x)
    trace = [stress(x, dist)]
    for eta in step_widths(dist, config):
        vertex = rng.permutation(dist.n)
        order = rng.permutation(len(slot_a))
        a = vertex[slot_a[order]]
        b = vertex[slot_b[order]]
        d = dist.matrix[a, b]
        half_mu = 0.5 * np.minimum(1.0, eta / (d * d))
        for i, j, d_round, half_round in zip(a, b, d, half_mu):
            _round(z, i, j, d_round, half_round, rng)
        trace.append(stress(x, dist))
    return x, trace
