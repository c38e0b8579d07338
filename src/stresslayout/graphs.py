"""Graph ingestion, cleanup and shortest-path distance matrices.

Input graphs come from Matrix Market files (the sparse-matrix benchmark
format), plain edge lists, or the synthetic families of FAMILIES, named
by specifiers like ``grid:10,10`` that synthetic_spec reads.  Everything
is normalized to a simple undirected graph on vertices [0, n): self-loops
dropped, duplicate/reversed edges merged.  A Graph is one pair of
read-only numpy CSR arrays that every layer reads in place; no layer
keeps a copy.  Distances are unweighted hop counts, held in the
narrowest unsigned integer type that fits them:
all_pairs_shortest_paths runs a level-synchronous numpy BFS over blocks
of sources straight on those arrays and fills the rows of an independent
set from their neighbours' rows.  bfs_hops answers one source at a time
from neighbour_rows, tuples of the rows that its caller builds and drops,
so a Graph holds its two arrays and nothing else for its whole life.  A
DistanceMatrix holds only checked distances (a zero between distinct
vertices is refused when it is built) and their pair table; the
majorization sweep reads the matrix itself, a block of rows at a time.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import cached_property

import numpy as np


class GraphFormatError(ValueError):
    """Malformed graph input; the message carries the offending line number."""


class DisconnectedGraphError(ValueError):
    """An operation that needs finite distances was given a disconnected graph."""


@dataclass(frozen=True, eq=False)
class Graph:
    """Simple undirected graph with contiguous 0-based vertex ids, in CSR form.

    Row v, ``indices[indptr[v]:indptr[v + 1]]``, lists v's neighbours in
    ascending order.  Both arrays are read-only int64 and every layer
    reads them in place; instances are immutable and safe to share.
    """

    n: int
    indptr: np.ndarray
    indices: np.ndarray

    @classmethod
    def from_edges(cls, n: int, edges) -> "Graph":
        """Normalize an (m, 2) array or sequence of pairs: drop self-loops, merge duplicates."""
        if n < 0:
            raise ValueError(f"vertex count must be nonnegative, got {n}")
        pairs = np.asarray(edges, dtype=np.int64).reshape(len(edges), 2)  # refuses other shapes
        outside = ((pairs < 0) | (pairs >= n)).any(axis=1)
        if outside.any():
            i, j = pairs[outside.argmax()].tolist()
            raise ValueError(f"edge ({i},{j}) out of range for n={n}")
        lo, hi = pairs.min(axis=1), pairs.max(axis=1)
        keys = (lo * n + hi)[lo != hi]  # edge i < j as i * n + j
        # stable sorts merge the presorted runs that generators and most files
        # give in linear time, and page in less code than quicksort's SIMD kernels
        keys.sort(kind="stable")
        keys = keys[np.diff(keys, prepend=-1) != 0]  # keys are nonnegative
        both = np.concatenate((keys, keys % n * n + keys // n))  # i * n + j and j * n + i
        both.sort(kind="stable")
        indptr = both.searchsorted(np.arange(n + 1) * n)
        indices = np.remainder(both, n, out=both)
        indptr.setflags(write=False)
        indices.setflags(write=False)
        return cls(n=n, indptr=indptr, indices=indices)

    @property
    def m(self) -> int:
        return self.indices.size // 2

    @property
    def edges(self) -> np.ndarray:
        """(m, 2) array of each edge once as (i, j) with i < j, rows in ascending order."""
        rows = np.repeat(np.arange(self.n), np.diff(self.indptr))
        upper = self.indices > rows
        return np.column_stack((rows[upper], self.indices[upper]))


class DistanceMatrix:
    """Symmetric matrix of pairwise target distances, zero on the diagonal
    and positive everywhere else.

    Also exposes the table of unordered pairs that stress and
    step_widths share.  The underlying arrays are read-only;
    instances are immutable.  The matrix is C-ordered, so matrix.ravel()
    is a view (run_sgd gathers targets from it).  Its dtype is float64
    when built from an arbitrary array, and the narrowest unsigned
    integer type that holds the largest hop count when
    all_pairs_shortest_paths builds it, so every reader casts the
    entries it computes with to float64 (a square wraps in uint8 and
    uint16).
    """

    def __init__(self, matrix):
        self._adopt(np.array(matrix, dtype=float, order="C"))

    @classmethod
    def _owning(cls, d: np.ndarray) -> "DistanceMatrix":
        """Wrap a C-ordered array that no one else holds, without a copy."""
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
        """Pair table (i, j, d_ij) over all i < j in lexicographic order (read-only).

        i and j are int32 and d_ij has the matrix's dtype.  One boolean
        mask of the upper triangle picks all three from the matrix and
        from broadcast views of one index row, so building the table
        allocates no int64 index arrays.
        """
        n = self.n
        upper = np.triu(np.ones((n, n), dtype=bool), 1)
        index = np.arange(n, dtype=np.int32)
        table = (np.broadcast_to(index[:, None], (n, n))[upper],
                 np.broadcast_to(index, (n, n))[upper], self._d[upper])
        for column in table:
            column.setflags(write=False)
        return table

    def __repr__(self) -> str:
        return f"DistanceMatrix(n={self.n})"


def parse_matrix_market(source, check_vertices=None) -> Graph:
    """Parse a Matrix Market coordinate file into a Graph.

    Accepts a string or a file-like object.  The nonzero pattern of the
    (square) matrix is symmetrized; numeric values, if present, are
    ignored.  Self-loops are dropped.  pattern/real/integer fields and
    general/symmetric banners are supported.  check_vertices, if given,
    is called with the vertex count the size line declares as soon as
    it is read, before anything of that size is built; it raises to
    refuse the file.
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
            if check_vertices is not None:
                check_vertices(rows)
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
    neighbours = neighbour_rows(g)
    hops = [-1] * g.n
    return [sorted(_bfs(neighbours, s, hops)) for s in range(g.n) if hops[s] < 0]


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
    remap = np.full(g.n, -1)
    remap[best] = np.arange(len(best))
    edges = remap[g.edges]
    return Graph.from_edges(len(best), edges[edges[:, 0] >= 0])  # an edge leaves no component


def neighbour_rows(g: Graph) -> list[tuple[int, ...]]:
    """Row v of g's CSR arrays as a tuple of Python ints, for every v: the
    form the single-source searches walk.

    Tuples hold their items inline, so a search reads one object per row
    where a list would add an indirection (about 4 % of info's diameter).
    """
    indices, bounds = g.indices.tolist(), g.indptr.tolist()
    return [tuple(indices[lo:hi]) for lo, hi in zip(bounds, bounds[1:])]


def _bfs(neighbours: list[tuple[int, ...]], source: int, hops: list[int]) -> list[int]:
    """Breadth-first search from source through vertices with hops[v] < 0.

    Writes each reached vertex's hop count from source into hops and
    returns the reached vertices in visit order.
    """
    hops[source] = 0
    order = [source]
    for v in order:  # the queue: vertices appended here are visited in turn
        dv = hops[v] + 1
        for u in neighbours[v]:
            if hops[u] < 0:
                hops[u] = dv
                order.append(u)
    return order


def bfs_hops(neighbours: list[tuple[int, ...]], source: int) -> list[int]:
    """Hop counts from source to every vertex of neighbour_rows(g); -1 marks
    unreachable.

    Every call is a distance query: connected_components runs _bfs itself.
    """
    hops = [-1] * len(neighbours)
    _bfs(neighbours, source, hops)
    return hops


def all_pairs_shortest_paths(g: Graph) -> DistanceMatrix:
    """Hop-count distance matrix of a connected graph.

    Every row outside a greedy independent set comes from a
    level-synchronous BFS over a block of sources (_bfs_block); each row
    of the set is then one plus the elementwise minimum of its
    neighbours' rows, since a shortest path from s leaves s through a
    neighbour.  The search reads the graph's own CSR arrays and writes
    an int32 n x n buffer (-1 marks an entry not yet reached); besides
    it, scratch stays within a few times _scratch_entries(n) entries.
    After the connectivity check and the fill, the matrix is returned
    in the narrowest unsigned type that holds its diameter
    (np.min_scalar_type: uint8 below 256, uint16 below 65 536), so it
    holds n**2 or 2 n**2 bytes and peaks at the buffer plus that copy.

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
    csr = (np.diff(g.indptr), g.indptr, g.indices)
    independent = _independent_set(g)
    d = np.full((n, n), -1, dtype=np.int32)
    budget = _scratch_entries(n)
    sources = np.flatnonzero(~independent)
    block, peak = max(1, budget // n), 1
    while sources.size:
        chunk, sources = sources[:block], sources[block:]
        widest = _bfs_block(d.reshape(-1), chunk, csr, budget)
        peak = max(peak, -(-widest // chunk.size))  # widest frontier per source so far
        block = max(1, budget // peak)
    # rows of the independent set are not searched: read 0's first neighbour's instead
    missing = np.flatnonzero(d[g.indices[0] if independent[0] else 0] < 0)
    if missing.size:
        raise DisconnectedGraphError(f"vertex {missing[0]} unreachable from vertex 0")
    _fill_from_neighbours(d, g, np.flatnonzero(independent).tolist())
    # every entry is a hop count now, so narrowing cannot wrap a -1
    narrow = d.astype(np.min_scalar_type(int(d.max())))
    del d  # freed before the checks allocate their masks
    return DistanceMatrix._owning(narrow)


def _fill_from_neighbours(d, g: Graph, vertices) -> None:
    """Set row s of d, for each s of vertices, to one plus the elementwise
    minimum of its neighbours' rows, and d[s, s] to zero.

    A function of its own so that its row views die with it and do not
    keep the int32 buffer alive once the caller drops it.
    """
    for s in vertices:
        row = d[s]
        first, *rest = g.indices[g.indptr[s]:g.indptr[s + 1]].tolist()
        np.copyto(row, d[first])
        for u in rest:
            np.minimum(row, d[u], out=row)
        row += 1
        row[s] = 0


def _scratch_entries(n: int) -> int:
    """BFS frontier and candidate entries handled at once: n**2 / 64, at least 2**13."""
    return max(1 << 13, n * n // 64)


def _independent_set(g: Graph) -> np.ndarray:
    """Mask of a greedy independent set, taken in ascending degree order.

    Isolated vertices stay out: their rows have no neighbours to fill from.
    """
    taken, blocked = np.zeros((2, g.n), dtype=bool)
    bounds = g.indptr.tolist()
    for v in np.diff(g.indptr).argsort(kind="stable").tolist():
        if not blocked[v] and bounds[v] < bounds[v + 1]:
            taken[v] = True
            blocked[g.indices[bounds[v]:bounds[v + 1]]] = True
    return taken


def _bfs_block(flat, sources, csr, budget: int) -> int:
    """Level-synchronous BFS from every vertex of sources at once.

    flat is the raveled int32 n x n buffer, -1 in the rows of sources; the hop
    count from s to v is written at flat[s * n + v], and the frontier
    holds those flat indices.  Entries a source cannot reach stay -1.
    Returns the widest frontier.
    """
    n = csr[0].size
    frontier = sources * (n + 1)
    flat.put(frontier, 0)
    widest, level = frontier.size, 0
    while frontier.size:
        level += 1
        frontier = _expand(flat, frontier, level, csr, budget)
        widest = max(widest, frontier.size)
    return widest


def _expand(flat, frontier, level: int, csr, budget: int) -> np.ndarray:
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
        cand = cand[flat.take(cand) < 0]
        tags = np.arange(-2, -2 - cand.size, -1, dtype=flat.dtype)
        flat.put(cand, tags)
        cand = cand[flat.take(cand) == tags]
        flat.put(cand, level)
        parts.append(cand)
        lo, base = hi, top
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


def path_graph(n: int) -> Graph:
    _check_size(n)
    return Graph.from_edges(n, np.arange(n - 1)[:, None] + [0, 1])


def cycle_graph(n: int) -> Graph:
    _check_size(n)
    return Graph.from_edges(n, (np.arange(n)[:, None] + [0, 1]) % n)


def grid_graph(rows: int, cols: int) -> Graph:
    """rows x cols lattice with 4-neighborhood."""
    _check_size(rows)
    _check_size(cols)
    v = np.arange(rows * cols)[:, None]
    edges = np.concatenate((v[v[:, 0] % cols < cols - 1] + [0, 1], v[:-cols] + [0, cols]))
    return Graph.from_edges(rows * cols, edges)


def complete_graph(n: int) -> Graph:
    _check_size(n)
    return Graph.from_edges(n, np.column_stack(np.triu_indices(n, 1)))


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
