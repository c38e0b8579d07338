"""Graph ingestion, cleanup and shortest-path distance matrices.

Input graphs come from Matrix Market files (the sparse-matrix benchmark
format), plain edge lists, or the synthetic families of FAMILIES, named
by specifiers like ``grid:10,10`` that synthetic_spec reads.  Everything
is normalized to a simple undirected graph on vertices [0, n): self-loops
dropped, duplicate/reversed edges merged.  Distances are unweighted hop
counts: all_pairs_shortest_paths runs a level-synchronous numpy BFS over
blocks of sources and fills the rows of an independent set from their
neighbours' rows; bfs_hops answers one source at a time.  A
DistanceMatrix holds only checked distances (a zero between distinct
vertices is refused when it is built) and their pair table; the
majorization weights belong to each smacof run.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import cached_property
from itertools import chain

import numpy as np


class GraphFormatError(ValueError):
    """Malformed graph input; the message carries the offending line number."""


class DisconnectedGraphError(ValueError):
    """An operation that needs finite distances was given a disconnected graph."""


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph with contiguous 0-based vertex ids.

    ``edges`` holds each edge once as a sorted ``(i, j)`` pair with i < j,
    in sorted order; ``adjacency`` is the derived per-vertex sorted
    neighbor tuple.  Instances are immutable and safe to share.
    """

    n: int
    edges: tuple[tuple[int, int], ...]
    adjacency: tuple[tuple[int, ...], ...]

    @classmethod
    def from_edges(cls, n: int, edges) -> "Graph":
        """Normalize an edge iterable: drop self-loops, merge duplicates."""
        if n < 0:
            raise ValueError(f"vertex count must be nonnegative, got {n}")
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
        adjacency = tuple(tuple(sorted(a)) for a in neighbors)
        return cls(n=n, edges=edge_tuple, adjacency=adjacency)

    @property
    def m(self) -> int:
        return len(self.edges)

    def degree(self, i: int) -> int:
        return len(self.adjacency[i])


class DistanceMatrix:
    """Symmetric matrix of pairwise target distances, zero on the diagonal
    and positive everywhere else.

    Also exposes the table of unordered pairs that stress and
    step_widths share.  The underlying arrays are read-only;
    instances are immutable.  The matrix is C-ordered, so matrix.ravel()
    is a view (run_sgd gathers targets from it).
    """

    def __init__(self, matrix):
        self._adopt(np.array(matrix, dtype=float, order="C"))

    @classmethod
    def _owning(cls, d: np.ndarray) -> "DistanceMatrix":
        """Wrap a float64 array that no one else holds, without a copy."""
        self = cls.__new__(cls)
        self._adopt(d)
        return self

    def _adopt(self, d: np.ndarray) -> None:
        """Validate d and keep it, made read-only."""
        if d.ndim != 2 or d.shape[0] != d.shape[1]:
            raise ValueError(f"distance matrix must be square, got shape {d.shape}")
        if d.shape[0] < 1:
            raise ValueError("distance matrix must have at least one row")
        if not np.isfinite(d).all():
            raise ValueError("distance matrix contains non-finite entries")
        if (d < 0).any():
            raise ValueError("distances must be nonnegative")
        if np.diagonal(d).any():
            raise ValueError("distance matrix diagonal must be zero")
        if np.count_nonzero(d) != d.size - d.shape[0]:
            raise ValueError("zero distance between distinct vertices")
        if not np.array_equal(d, d.T):
            raise ValueError("distance matrix must be symmetric")
        d.setflags(write=False)
        self._d = d

    @property
    def n(self) -> int:
        return self._d.shape[0]

    @property
    def matrix(self) -> np.ndarray:
        return self._d

    @cached_property
    def pairs(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Pair table (i, j, d_ij) over all i < j in lexicographic order (read-only)."""
        i, j = np.triu_indices(self.n, 1)
        table = (i, j, self._d[i, j])
        for column in table:
            column.setflags(write=False)
        return table

    def __repr__(self) -> str:
        return f"DistanceMatrix(n={self.n})"


def parse_matrix_market(source) -> Graph:
    """Parse a Matrix Market coordinate file into a Graph.

    Accepts a string or a file-like object.  The nonzero pattern of the
    (square) matrix is symmetrized; numeric values, if present, are
    ignored.  Self-loops are dropped.  pattern/real/integer fields and
    general/symmetric banners are supported.
    """
    text = source.read() if hasattr(source, "read") else source
    lines = text.splitlines()
    if not lines or not lines[0].strip():
        raise GraphFormatError("line 1: missing Matrix Market banner")
    banner = lines[0].split()
    if len(banner) != 5 or banner[0].lower() != "%%matrixmarket":
        raise GraphFormatError("line 1: malformed Matrix Market banner")
    obj, layout, field, symmetry = (tok.lower() for tok in banner[1:])
    if obj != "matrix":
        raise GraphFormatError(f"line 1: unsupported object {obj!r}")
    if layout != "coordinate":
        raise GraphFormatError(f"line 1: only coordinate format is supported, got {layout!r}")
    if field not in ("pattern", "real", "integer"):
        raise GraphFormatError(f"line 1: unsupported field {field!r}")
    if symmetry not in ("general", "symmetric"):
        raise GraphFormatError(f"line 1: unsupported symmetry {symmetry!r}")

    size: int | None = None
    entries: list[tuple[int, int]] = []
    for lineno, raw in enumerate(lines[1:], start=2):
        stripped = raw.strip()
        if not stripped or stripped.startswith("%"):
            continue
        tokens = stripped.split()
        if size is None:
            if len(tokens) != 3:
                raise GraphFormatError(f"line {lineno}: expected size line 'rows cols nnz'")
            try:
                rows, cols, declared = (int(t) for t in tokens)
            except ValueError:
                raise GraphFormatError(f"line {lineno}: non-integer size entry") from None
            if rows != cols:
                raise GraphFormatError(f"line {lineno}: matrix is {rows}x{cols}, expected square")
            if rows < 0:
                raise GraphFormatError(f"line {lineno}: negative dimension")
            size = rows
            continue
        if len(tokens) < 2:
            raise GraphFormatError(f"line {lineno}: expected two indices")
        try:
            i, j = int(tokens[0]), int(tokens[1])
        except ValueError:
            raise GraphFormatError(f"line {lineno}: non-integer index") from None
        if not (1 <= i <= size and 1 <= j <= size):
            raise GraphFormatError(f"line {lineno}: index out of declared range 1..{size}")
        entries.append((i - 1, j - 1))
    if size is None:
        raise GraphFormatError("missing size line")
    if len(entries) != declared:
        raise GraphFormatError(f"size line declares {declared} entries, found {len(entries)}")
    return Graph.from_edges(size, entries)


def parse_edge_list(source) -> Graph:
    """Parse whitespace-separated vertex-id pairs, one edge per line.

    Lines starting with '#' and blank lines are skipped.  Vertex ids are
    arbitrary nonnegative integers, remapped to [0, n) in first-seen order.
    """
    text = source.read() if hasattr(source, "read") else source
    ids: dict[int, int] = {}
    pairs: list[tuple[int, int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        tokens = stripped.split()
        if len(tokens) != 2:
            raise GraphFormatError(f"line {lineno}: expected two vertex ids, got {len(tokens)} tokens")
        pair = []
        for tok in tokens:
            try:
                v = int(tok)
            except ValueError:
                raise GraphFormatError(f"line {lineno}: non-integer vertex id {tok!r}") from None
            if v < 0:
                raise GraphFormatError(f"line {lineno}: negative vertex id {v}")
            if v not in ids:
                ids[v] = len(ids)
            pair.append(ids[v])
        pairs.append((pair[0], pair[1]))
    return Graph.from_edges(len(ids), pairs)


def connected_components(g: Graph) -> list[list[int]]:
    """Vertex lists of the connected components, in order of smallest member."""
    hops = [-1] * g.n
    return [sorted(_bfs(g, s, hops)) for s in range(g.n) if hops[s] < 0]


def largest_connected_component(g: Graph, components=None) -> Graph:
    """Induced subgraph on the largest component, reindexed to [0, n').

    components, if given, is connected_components(g), so a caller that
    holds them saves a second search.  Ties between equal-sized
    components go to the one containing the smallest original vertex id.
    Reindexing preserves ascending id order.  A connected graph is
    returned itself, not copied.
    """
    if components is None:
        components = connected_components(g)
    best = max(components, key=len, default=[])  # first wins ties
    if len(best) == g.n:
        return g
    remap = {v: k for k, v in enumerate(best)}
    edges = [(remap[i], remap[j]) for i, j in g.edges if i in remap and j in remap]
    return Graph.from_edges(len(best), edges)


def _bfs(g: Graph, source: int, hops: list[int]) -> list[int]:
    """Breadth-first search from source through vertices with hops[v] < 0.

    Writes each reached vertex's hop count from source into hops and
    returns the reached vertices in visit order.
    """
    hops[source] = 0
    order = [source]
    for v in order:  # the queue: vertices appended here are visited in turn
        dv = hops[v] + 1
        for u in g.adjacency[v]:
            if hops[u] < 0:
                hops[u] = dv
                order.append(u)
    return order


def bfs_hops(g: Graph, source: int) -> list[int]:
    """Hop counts from source to every vertex; -1 marks unreachable.

    Every call is a distance query: connected_components runs _bfs itself.
    """
    hops = [-1] * g.n
    _bfs(g, source, hops)
    return hops


def all_pairs_shortest_paths(g: Graph) -> DistanceMatrix:
    """Hop-count distance matrix of a connected graph.

    Every row outside a greedy independent set comes from a
    level-synchronous BFS over a block of sources (_bfs_block); each row
    of the set is then one plus the elementwise minimum of its
    neighbours' rows, since a shortest path from s leaves s through a
    neighbour.  Besides the result and a CSR copy of the adjacency,
    scratch stays within a few times _scratch_entries(n) entries.

    Connectivity is read after the blocks, before the fill, from one
    searched row of vertex 0's component: vertex 0's own, or its first
    neighbour's when 0 is in the set.  Raises DisconnectedGraphError
    naming the first vertex that row misses (the lowest vertex
    unreachable from 0); callers should reduce to a connected component
    first.
    """
    n = g.n
    if n < 1:
        raise ValueError("graph must have at least one vertex")
    degree = np.fromiter(map(len, g.adjacency), dtype=np.int64, count=n)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(degree, out=indptr[1:])
    indices = np.fromiter(chain.from_iterable(g.adjacency), dtype=np.int64, count=indptr[-1])
    csr = (degree, indptr, indices)
    independent = _independent_set(g)
    d = np.full((n, n), -1.0)
    budget = _scratch_entries(n)
    sources = np.flatnonzero(~independent)
    block, peak = max(1, budget // n), 1
    while sources.size:
        chunk, sources = sources[:block], sources[block:]
        widest = _bfs_block(d.reshape(-1), chunk, csr, budget)
        peak = max(peak, -(-widest // chunk.size))  # widest frontier per source so far
        block = max(1, budget // peak)
    del csr, indptr, indices  # gone before DistanceMatrix allocates its checks
    # rows of the independent set are not searched: read 0's first neighbour's instead
    missing = np.flatnonzero(d[g.adjacency[0][0] if independent[0] else 0] < 0.0)
    if missing.size:
        raise DisconnectedGraphError(f"vertex {missing[0]} unreachable from vertex 0")
    for s in np.flatnonzero(independent).tolist():
        row = d[s]
        first, *rest = g.adjacency[s]
        np.copyto(row, d[first])
        for u in rest:
            np.minimum(row, d[u], out=row)
        row += 1.0
        row[s] = 0.0
    return DistanceMatrix._owning(d)


def _scratch_entries(n: int) -> int:
    """BFS frontier and candidate entries handled at once: n**2 / 64, at least 2**13."""
    return max(1 << 13, n * n // 64)


def _independent_set(g: Graph) -> np.ndarray:
    """Mask of a greedy independent set, taken in ascending degree order.

    Isolated vertices stay out: their rows have no neighbours to fill from.
    """
    taken = np.zeros(g.n, dtype=bool)
    blocked = [False] * g.n
    for v in sorted(range(g.n), key=lambda v: len(g.adjacency[v])):
        if not blocked[v] and g.adjacency[v]:
            taken[v] = True
            for u in g.adjacency[v]:
                blocked[u] = True
    return taken


def _bfs_block(flat, sources, csr, budget: int) -> int:
    """Level-synchronous BFS from every vertex of sources at once.

    flat is the raveled n x n matrix, -1 in the rows of sources; the hop
    count from s to v is written at flat[s * n + v], and the frontier
    holds those flat indices.  Entries a source cannot reach stay -1.
    Returns the widest frontier.
    """
    n = csr[0].size
    frontier = sources * (n + 1)
    flat.put(frontier, 0.0)
    widest, level = frontier.size, 0.0
    while frontier.size:
        level += 1.0
        frontier = _expand(flat, frontier, level, csr, budget)
        widest = max(widest, frontier.size)
    return widest


def _expand(flat, frontier, level: float, csr, budget: int) -> np.ndarray:
    """Visit the unvisited neighbours of frontier; return them as the next frontier.

    csr is (degree, indptr, indices).  Frontier entries are expanded a
    slice at a time, each slice up to budget candidates in all (at least
    one entry).  Candidates still at -1 in flat are tagged with distinct
    negative numbers; of several candidates for one entry only one tag
    reads back, so each entry is kept once and gets level.
    """
    degree, indptr, indices = csr
    vertex = frontier % degree.size
    ends = degree.take(vertex)
    ends.cumsum(out=ends)
    parts = []
    lo = base = 0
    while lo < frontier.size:
        hi = max(lo + 1, int(ends.searchsorted(base + budget, side="right")))
        top = int(ends[hi - 1])
        v = vertex[lo:hi]
        count = degree.take(v)
        # candidate k of the slice reads indices[k + indptr[v + 1] - ends[j]]
        cand = indptr[1:].take(v)
        cand -= ends[lo:hi]
        cand = cand.repeat(count)
        cand += np.arange(base, top)
        cand = indices.take(cand)
        cand += (frontier[lo:hi] - v).repeat(count)  # s * n
        cand = cand[flat.take(cand) < 0.0]
        tags = np.arange(-2.0, -2.0 - cand.size, -1.0)
        flat.put(cand, tags)
        cand = cand[flat.take(cand) == tags]
        flat.put(cand, level)
        parts.append(cand)
        lo, base = hi, top
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


def path_graph(n: int) -> Graph:
    _check_size(n)
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    _check_size(n)
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def grid_graph(rows: int, cols: int) -> Graph:
    """rows x cols lattice with 4-neighborhood."""
    _check_size(rows)
    _check_size(cols)
    edges = []
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            if c + 1 < cols:
                edges.append((v, v + 1))
            if r + 1 < rows:
                edges.append((v, v + cols))
    return Graph.from_edges(rows * cols, edges)


def complete_graph(n: int) -> Graph:
    _check_size(n)
    return Graph.from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


# family: (generator, number of sizes, bound on the edge count from the sizes).
# In every family the vertex count is the product of the sizes.
FAMILIES = {
    "path": (path_graph, 1, lambda n: n - 1),
    "cycle": (cycle_graph, 1, lambda n: n),
    "grid": (grid_graph, 2, lambda rows, cols: 2 * rows * cols - rows - cols),
    "complete": (complete_graph, 1, lambda n: n * (n - 1) // 2),
}
_SPEC = re.compile(rf"^({'|'.join(FAMILIES)}):(\d+(?:,\d+)*)$")


def synthetic_spec(spec: str) -> tuple[str, str, tuple[int, ...], int, int] | None:
    """(name, family, sizes, n, edge bound) of a synthetic specifier like
    ``grid:10,10``, read without building its graph; None for a file path.

    The name is like ``grid_10x10``, n is the vertex count and the graph
    has at most edge bound edges.  Raises ValueError if the family takes
    another number of sizes.
    """
    match = _SPEC.match(spec)
    if match is None:
        return None
    family, sizes = match.group(1), tuple(int(s) for s in match.group(2).split(","))
    _, edge_bound = _family(family, len(sizes))
    name = f"{family}_" + "x".join(map(str, sizes))
    return name, family, sizes, math.prod(sizes), edge_bound(*sizes)


def generate(family: str, *sizes: int) -> Graph:
    """Build a synthetic family: path, cycle, grid (rows, cols), complete."""
    return _family(family, len(sizes))[0](*sizes)


def _family(family: str, count: int):
    """(generator, edge bound) of family, checked to take count size parameters."""
    if family not in FAMILIES:
        raise ValueError(f"unknown graph family {family!r}; expected one of {sorted(FAMILIES)}")
    maker, arity, edge_bound = FAMILIES[family]
    if count != arity:
        raise ValueError(f"{family} takes {arity} size parameter(s), got {count}")
    return maker, edge_bound


def _check_size(value: int) -> None:
    if value < 1:
        raise ValueError(f"size parameters must be positive, got {value}")
