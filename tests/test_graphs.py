import io
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stresslayout import (
    DisconnectedGraphError,
    DistanceMatrix,
    Graph,
    GraphFormatError,
    SgdConfig,
    SmacofConfig,
    all_pairs_shortest_paths,
    classical_mds,
    complete_graph,
    connected_components,
    cycle_graph,
    generate,
    grid_graph,
    largest_connected_component,
    parse_edge_list,
    parse_matrix_market,
    path_graph,
    pivot_mds,
    random_init,
    run_sgd,
    run_smacof,
    stress,
)
from stresslayout import graphs
from stresslayout.graphs import FAMILIES, bfs_hops, neighbour_rows, synthetic_spec
from stresslayout.stress import STRESS_BLOCK
from helpers import floyd_warshall, random_connected_graph, reference_from_edges


def bfs_rows(g):
    """The distance matrix built from one bfs_hops row per source."""
    rows = neighbour_rows(g)
    return np.array([bfs_hops(rows, s) for s in range(g.n)], dtype=float)


def star_graph(n):
    return Graph.from_edges(n, [(0, leaf) for leaf in range(1, n)])


def random_graph(n, extra, seed, bipartite):
    """random_connected_graph; bipartite keeps only chords that join the tree's two colours."""
    g = random_connected_graph(n, extra, seed)
    if not bipartite:
        return g
    tree = random_connected_graph(n, 0, seed)  # the same draws build the same tree
    colour = [hops % 2 for hops in bfs_hops(neighbour_rows(tree), 0)]
    return Graph.from_edges(n, [(i, j) for i, j in g.edges if colour[i] != colour[j]])


class TestMatrixMarket:
    def test_pattern_symmetric(self):
        text = "%%MatrixMarket matrix coordinate pattern symmetric\n3 3 2\n2 1\n3 2\n"
        g = parse_matrix_market(text)
        assert g.n == 3
        assert g.edges.tolist() == [[0, 1], [1, 2]]

    def test_self_loop_only(self):
        g = parse_matrix_market("%%MatrixMarket matrix coordinate pattern general\n1 1 1\n1 1\n")
        assert g.n == 1
        assert g.edges.tolist() == []

    def test_general_banner_merges_reversed_duplicates(self):
        text = "%%MatrixMarket matrix coordinate pattern general\n2 2 2\n1 2\n2 1\n"
        g = parse_matrix_market(text)
        assert g.edges.tolist() == [[0, 1]]

    def test_real_values_ignored(self):
        text = (
            "%%MatrixMarket matrix coordinate real symmetric\n"
            "% a comment\n"
            "3 3 3\n"
            "1 1 4.5\n"
            "2 1 -1.0\n"
            "3 1 2.25e-3\n"
        )
        g = parse_matrix_market(text)
        assert g.n == 3
        assert g.edges.tolist() == [[0, 1], [0, 2]]

    def test_file_like_input(self):
        handle = io.StringIO("%%MatrixMarket matrix coordinate pattern general\n2 2 1\n1 2\n")
        assert parse_matrix_market(handle).edges.tolist() == [[0, 1]]

    def test_comments_and_blank_lines(self):
        text = (
            "%%MatrixMarket matrix coordinate integer general\n"
            "%% more comment\n"
            "\n"
            "2 2 1\n"
            "\n"
            "2 1 7\n"
        )
        assert parse_matrix_market(text).edges.tolist() == [[0, 1]]

    @pytest.mark.parametrize(
        "text, fragment",
        [
            ("", "line 1"),
            ("%%MatrixMorket matrix coordinate pattern general\n", "banner"),
            ("%%MatrixMarket matrix array pattern general\n", "coordinate"),
            ("%%MatrixMarket matrix coordinate complex general\n", "field"),
            ("%%MatrixMarket matrix coordinate pattern skew-symmetric\n", "symmetry"),
            ("%%MatrixMarket matrix coordinate pattern general\n2 3 1\n1 2\n", "line 2"),
            ("%%MatrixMarket matrix coordinate pattern general\nx 2 1\n", "line 2"),
            ("%%MatrixMarket matrix coordinate pattern general\n2 2 1\n1 3\n", "line 3"),
            ("%%MatrixMarket matrix coordinate pattern general\n2 2 1\n1 2.5\n", "line 3"),
            ("%%MatrixMarket matrix coordinate pattern general\n2 2 1\n1\n", "line 3"),
            ("%%MatrixMarket matrix coordinate pattern general\n", "size"),
        ],
    )
    def test_errors_carry_line_numbers(self, text, fragment):
        with pytest.raises(GraphFormatError, match=fragment):
            parse_matrix_market(text)

    @pytest.mark.parametrize(
        "entries, found", [("1 2\n", 1), ("1 2\n2 3\n3 4\n4 1\n", 4)], ids=["fewer", "more"]
    )
    def test_entry_count_must_match_size_line(self, entries, found):
        text = "%%MatrixMarket matrix coordinate pattern general\n4 4 3\n" + entries
        with pytest.raises(GraphFormatError, match=f"declares 3 entries, found {found}"):
            parse_matrix_market(text)

    def test_out_of_range_reports_correct_line(self):
        text = "%%MatrixMarket matrix coordinate pattern general\n3 3 2\n1 2\n9 1\n"
        with pytest.raises(GraphFormatError, match="line 4"):
            parse_matrix_market(text)


class TestEdgeList:
    def test_basic(self):
        g = parse_edge_list("0 1\n1 2\n")
        assert g.n == 3
        assert g.edges.tolist() == [[0, 1], [1, 2]]

    def test_remap_first_seen_and_merge(self):
        g = parse_edge_list("5 7\n7 5\n")
        assert g.n == 2
        assert g.edges.tolist() == [[0, 1]]

    def test_self_loop_registers_vertex(self):
        g = parse_edge_list("3 3\n")
        assert g.n == 1
        assert g.edges.tolist() == []

    def test_comments_and_blanks(self):
        g = parse_edge_list("# heading\n\n0 1\n# tail\n")
        assert g.edges.tolist() == [[0, 1]]

    def test_non_integer_token(self):
        with pytest.raises(GraphFormatError, match="line 1"):
            parse_edge_list("a 1\n")

    def test_negative_id(self):
        with pytest.raises(GraphFormatError, match="negative"):
            parse_edge_list("0 1\n-2 1\n")

    def test_wrong_token_count(self):
        with pytest.raises(GraphFormatError, match="two vertex ids"):
            parse_edge_list("0 1 2\n")


class TestGraphType:
    def test_from_edges_normalizes(self):
        g = Graph.from_edges(3, [(0, 1), (1, 0), (2, 2), (1, 2)])
        assert g.edges.tolist() == [[0, 1], [1, 2]]
        assert g.indptr.tolist() == [0, 1, 3, 4]
        assert g.indices.tolist() == [1, 0, 2, 1]

    def test_from_edges_range_check(self):
        with pytest.raises(ValueError, match="out of range"):
            Graph.from_edges(2, [(0, 2)])
        pairs = [(0, 1), (1, 1), (3, -1), (0, 2)]  # the first pair out of range is named
        for normalize in (Graph.from_edges, reference_from_edges):
            with pytest.raises(ValueError) as error:
                normalize(2, pairs)
            assert str(error.value) == "edge (3,-1) out of range for n=2"

    @given(st.integers(0, 15).flatmap(lambda n: st.tuples(st.just(n), st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=40) if n else st.just([]))))
    @settings(max_examples=150, deadline=None)
    def test_from_edges_matches_reference(self, graph):
        # draws hold self-loops, duplicates, reversed pairs and isolated vertices
        n, pairs = graph
        edges, adjacency = reference_from_edges(n, pairs)
        g = Graph.from_edges(n, pairs)
        assert g.n == n and g.m == len(edges)
        assert g.edges.shape == (len(edges), 2)
        assert g.edges.tolist() == [list(e) for e in edges]
        assert g.indptr.tolist() == [0, *itertools.accumulate(map(len, adjacency))]
        assert g.indices.tolist() == [j for row in adjacency for j in row]
        rows = [g.indices[g.indptr[i]:g.indptr[i + 1]].tolist() for i in range(n)]
        for i, row in enumerate(rows):
            assert row == sorted(set(row)) and i not in row
            assert all(i in rows[j] for j in row)
        for array in (g.indptr, g.indices):
            assert array.dtype == np.int64 and not array.flags.writeable
            with pytest.raises(ValueError):
                array[:1] = 0

    def test_from_edges_takes_arrays(self):
        pairs = np.array([[2, 0], [0, 2], [1, 1]])
        g = Graph.from_edges(3, pairs)
        assert g.edges.tolist() == [[0, 2]]
        assert pairs.tolist() == [[2, 0], [0, 2], [1, 1]]  # the input is not modified

    @pytest.mark.parametrize("edges", [[(0, 1, 2), (1, 2, 0)], [0, 1, 1, 2], np.arange(6).reshape(2, 3)],
                             ids=["triples", "flat", "array_of_triples"])
    def test_from_edges_refuses_other_shapes(self, edges):
        with pytest.raises(ValueError):
            Graph.from_edges(6, edges)


class TestComponents:
    def test_connected_graph_unchanged(self):
        g = cycle_graph(5)
        assert largest_connected_component(g) == g

    @pytest.mark.parametrize("g", [cycle_graph(5), grid_graph(3, 4), path_graph(1),
                                   Graph.from_edges(0, [])])
    def test_connected_graph_returned_itself(self, g):
        assert largest_connected_component(g) is g

    def test_largest_of_two(self):
        g = Graph.from_edges(5, [(0, 1), (1, 2), (3, 4)])
        lcc = largest_connected_component(g)
        assert lcc.n == 3
        assert lcc.edges.tolist() == [[0, 1], [1, 2]]

    def test_tie_goes_to_smallest_vertex_id(self):
        g = Graph.from_edges(4, [(0, 3), (1, 2)])
        lcc = largest_connected_component(g)
        assert lcc.n == 2
        # component {0, 3} wins the tie and is reindexed to {0, 1}
        assert lcc.edges.tolist() == [[0, 1]]

    def test_empty_graph(self):
        g = Graph.from_edges(0, [])
        assert largest_connected_component(g).n == 0

    def test_searches_leave_the_graph_its_arrays(self):
        # every search walks row tuples built for its call alone
        g = grid_graph(3, 4)
        connected_components(g)
        pivot_mds(g, 3, 0)
        assert sorted(vars(g)) == ["indices", "indptr", "n"]
        rows = [tuple(g.indices[g.indptr[v]:g.indptr[v + 1]].tolist()) for v in range(g.n)]
        assert neighbour_rows(g) == rows

    def test_component_listing(self):
        g = Graph.from_edges(5, [(0, 1), (3, 4)])
        assert connected_components(g) == [[0, 1], [2], [3, 4]]

    @given(st.integers(0, 40), st.data())
    @settings(max_examples=80, deadline=None)
    def test_components_partition_into_bfs_reach(self, n, data):
        vertex = st.integers(0, max(n - 1, 0))
        edges = data.draw(st.lists(st.tuples(vertex, vertex), max_size=n)) if n else []
        g = Graph.from_edges(n, edges)
        components = connected_components(g)
        assert sorted(v for c in components for v in c) == list(range(n))
        smallest = [min(c) for c in components]
        assert smallest == sorted(set(smallest))
        for c in components:
            hops = bfs_hops(neighbour_rows(g), c[0])
            assert c == [v for v in range(n) if hops[v] >= 0]


class TestShortestPaths:
    def test_path3(self):
        d = all_pairs_shortest_paths(path_graph(3)).matrix
        assert d[0, 2] == 2 and d[0, 1] == 1 and d[1, 2] == 1

    def test_cycle4_opposites(self):
        d = all_pairs_shortest_paths(cycle_graph(4)).matrix
        for i in range(4):
            assert d[i, (i + 2) % 4] == 2

    def test_grid_corner_to_corner_matches_oracle(self):
        g = grid_graph(3, 3)
        d = all_pairs_shortest_paths(g).matrix
        oracle = floyd_warshall(g)
        assert np.array_equal(d, oracle)
        assert d[0, 8] == 4

    def test_single_vertex(self):
        d = all_pairs_shortest_paths(Graph.from_edges(1, []))
        assert d.matrix.shape == (1, 1)

    def test_disconnected_raises(self):
        with pytest.raises(DisconnectedGraphError, match="unreachable"):
            all_pairs_shortest_paths(Graph.from_edges(3, [(0, 1)]))

    @given(st.integers(2, 25), st.integers(0, 20), st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_matches_floyd_warshall(self, n, extra, seed):
        g = random_connected_graph(n, extra, seed)
        assert np.array_equal(all_pairs_shortest_paths(g).matrix, floyd_warshall(g))

    def test_distance_one_iff_edge_and_triangle_inequality(self):
        g = random_connected_graph(20, 15, 99)
        d = all_pairs_shortest_paths(g).matrix
        edges = set(map(tuple, g.edges.tolist()))
        for i in range(g.n):
            for j in range(i + 1, g.n):
                assert (d[i, j] == 1) == ((i, j) in edges)
        for i in range(g.n):
            for j in range(g.n):
                for k in range(g.n):
                    assert d[i, k] <= d[i, j] + d[j, k]

    def test_peak_memory_near_result(self):
        g = grid_graph(20, 30)
        all_pairs_shortest_paths(path_graph(3))  # one-time allocations of a first call
        tracemalloc.start()
        try:
            d = all_pairs_shortest_paths(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the int32 search buffer and the narrow result, not a float64 n x n array
        assert peak <= 7 * g.n**2

    @pytest.mark.parametrize("budget", ["default", "one entry"])
    @given(st.integers(1, 30), st.integers(0, 40), st.integers(0, 10_000), st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_matches_bfs_rows(self, budget, n, extra, seed, bipartite):
        g = random_graph(n, extra, seed, bipartite)
        with pytest.MonkeyPatch.context() as patch:
            if budget == "one entry":  # one source per block, one frontier entry per slice
                patch.setattr(graphs, "_scratch_entries", lambda n: 1)
            assert np.array_equal(all_pairs_shortest_paths(g).matrix, bfs_rows(g))

    @pytest.mark.parametrize("g", [
        star_graph(9),  # the centre's neighbours are all in the independent set
        complete_graph(12),
        path_graph(2),
        Graph.from_edges(1, []),
    ], ids=["star", "complete12", "path2", "single"])
    def test_fixed_shapes_match_bfs_rows(self, g):
        assert np.array_equal(all_pairs_shortest_paths(g).matrix, bfs_rows(g))

    @pytest.mark.parametrize("budget", ["default", "one entry"])
    @pytest.mark.parametrize("n,edges,message", [
        (3, [(0, 1)], "vertex 2 unreachable from vertex 0"),
        (4, [(0, 1), (2, 3)], "vertex 2 unreachable from vertex 0"),
        (3, [], "vertex 1 unreachable from vertex 0"),
    ])
    def test_disconnected_message_names_first_pair(self, n, edges, message, budget, monkeypatch):
        if budget == "one entry":
            monkeypatch.setattr(graphs, "_scratch_entries", lambda n: 1)
        g = Graph.from_edges(n, edges)
        if edges:  # vertex 0's row is filled from its neighbour's, not searched
            assert graphs._independent_set(g)[0]
        with pytest.raises(DisconnectedGraphError) as error:
            all_pairs_shortest_paths(g)
        assert str(error.value) == message

    @pytest.mark.parametrize("budget", ["default", "one entry"])
    @given(st.integers(1, 12).flatmap(lambda n: st.tuples(
        st.just(n), st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=12))))
    @settings(max_examples=80, deadline=None)
    def test_one_search_names_lowest_vertex_unreachable_from_0(self, budget, graph):
        n, edges = graph
        g = Graph.from_edges(n, edges)
        hops, expected = bfs_hops(neighbour_rows(g), 0), bfs_rows(g)
        with pytest.MonkeyPatch.context() as patch:
            if budget == "one entry":
                patch.setattr(graphs, "_scratch_entries", lambda n: 1)
            # the block BFS alone finds the pair: no per-source search runs
            patch.setattr(graphs, "_bfs", lambda *args: pytest.fail("_bfs was called"))
            if -1 in hops:
                with pytest.raises(DisconnectedGraphError) as error:
                    all_pairs_shortest_paths(g)
                assert str(error.value) == f"vertex {hops.index(-1)} unreachable from vertex 0"
            else:
                assert np.array_equal(all_pairs_shortest_paths(g).matrix, expected)

    @pytest.mark.parametrize("g", [
        cycle_graph(600),
        path_graph(600),
        star_graph(600),
        random_connected_graph(600, 150, 7),
        # at n = 500 the 2**13-entry floor of BFS scratch is still a small share of the result
        complete_graph(500),
    ], ids=["cycle600", "path600", "star600", "tree_chords600", "complete500"])
    def test_peak_memory_near_result_on_other_shapes(self, g):
        all_pairs_shortest_paths(path_graph(3))  # one-time allocations of a first call
        tracemalloc.start()
        try:
            d = all_pairs_shortest_paths(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 7 * g.n**2


class TestGenerators:
    def test_path(self):
        assert path_graph(3).edges.tolist() == [[0, 1], [1, 2]]

    def test_cycle(self):
        g = cycle_graph(3)
        assert g.m == 3
        assert np.diff(g.indptr).tolist() == [2, 2, 2]

    def test_grid(self):
        g = grid_graph(2, 2)
        assert g.n == 4 and g.m == 4

    def test_complete(self):
        assert complete_graph(4).m == 6

    @pytest.mark.parametrize("family,sizes", [("path", (0,)), ("grid", (2, -1)), ("cycle", (0,))])
    def test_rejects_non_positive_sizes(self, family, sizes):
        with pytest.raises(ValueError, match="positive"):
            generate(family, *sizes)

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_table_counts(self, family):
        # n is the product of the sizes and m the table's bound, which a
        # cycle on fewer than 3 vertices (self-loop or doubled edge) stays under
        arity = FAMILIES[family][1]
        for sizes in itertools.product(range(1, 9), repeat=arity):
            spec = f"{family}:" + ",".join(map(str, sizes))
            name, parsed_family, parsed_sizes, n, m = synthetic_spec(spec)
            g = generate(family, *sizes)
            assert (parsed_family, parsed_sizes) == (family, sizes)
            assert name == f"{family}_" + "x".join(map(str, sizes))
            assert g.n == n == math.prod(sizes)
            if family == "cycle" and n < 3:
                assert g.m <= m
            else:
                assert g.m == m

    def test_spec_grammar(self):
        for family, (_, arity, _) in FAMILIES.items():
            assert synthetic_spec(f"{family}:" + ",".join(["12"] * arity))[1] == family
        for spec in ("star:5", "grid", "grid:", "grid:3,", "path:-1", "path:1.5", "Path:3",
                     " path:3", "g.edges", "path:3.mtx"):
            assert synthetic_spec(spec) is None
        with pytest.raises(ValueError, match="grid takes 2 size parameter"):
            synthetic_spec("grid:99999999")

    def test_dispatcher(self):
        assert generate("grid", 2, 3).n == 6
        with pytest.raises(ValueError, match="unknown graph family"):
            generate("torus", 3)
        with pytest.raises(ValueError, match="size parameter"):
            generate("path", 3, 4)


class TestDistanceMatrix:
    def test_matrix_read_only(self):
        d = DistanceMatrix([[0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(ValueError):
            d.matrix[0, 1] = 5.0

    def test_copies_caller_array(self):
        owned = np.array([[0.0, 1.0], [1.0, 0.0]])
        d = DistanceMatrix(owned)
        owned[0, 1] = owned[1, 0] = 5.0
        assert d.matrix[0, 1] == 1.0
        assert not np.shares_memory(owned, d.matrix)

    def test_c_ordered_from_fortran_input(self):
        # run_sgd takes targets from matrix.ravel(), which must not copy
        d = all_pairs_shortest_paths(grid_graph(3, 4)).matrix
        matrix = DistanceMatrix(np.asfortranarray(d)).matrix
        assert matrix.flags.c_contiguous
        assert np.shares_memory(matrix.ravel(), matrix)
        assert np.array_equal(matrix, d)

    def test_pair_table(self):
        d = all_pairs_shortest_paths(grid_graph(3, 4))
        i, j, targets = d.pairs
        expected_i, expected_j = np.triu_indices(12, 1)
        assert np.array_equal(i, expected_i) and np.array_equal(j, expected_j)
        assert list(zip(i.tolist(), j.tolist())) == sorted(
            (a, b) for a in range(12) for b in range(a + 1, 12)
        )
        assert np.array_equal(targets, d.matrix[expected_i, expected_j])
        assert d.pairs is d.pairs
        for column in d.pairs:
            with pytest.raises(ValueError):
                column[0] = 7

    @pytest.mark.parametrize(
        "matrix, fragment",
        [
            ([[0.0, 1.0]], "square"),
            ([[0.0, 1.0], [2.0, 0.0]], "symmetric"),
            ([[1.0, 1.0], [1.0, 0.0]], "diagonal"),
            ([[0.0, -1.0], [-1.0, 0.0]], "nonnegative"),
            ([[0.0, float("nan")], [float("nan"), 0.0]], "finite"),
            ([[0.0, 0.0, 1.0], [0.0, 0.0, 1.0], [1.0, 1.0, 0.0]],
             "zero distance between distinct vertices"),
        ],
    )
    def test_validation(self, matrix, fragment):
        with pytest.raises(ValueError, match=fragment):
            DistanceMatrix(matrix)


class TestNarrowDistances:
    """Hop counts are held as uint8 or uint16; every reader casts to float64."""

    GRAPHS = {
        "path300": (path_graph(300), np.uint16),
        "grid2x150": (grid_graph(2, 150), np.uint8),
        "grid24x25": (grid_graph(24, 25), np.uint8),
        "random": (random_connected_graph(200, 20, 3), np.uint8),  # diameter 17
    }

    @pytest.mark.parametrize("name", sorted(GRAPHS))
    def test_readers_match_the_float_matrix(self, name):
        graph, dtype = self.GRAPHS[name]
        narrow = all_pairs_shortest_paths(graph)
        wide = DistanceMatrix(narrow.matrix.astype(float))
        assert narrow.matrix.dtype == dtype
        # a reader that forgets to cast would wrap its squares
        assert int(narrow.matrix.max()) ** 2 > np.iinfo(dtype).max
        assert np.array_equal(narrow.matrix, wide.matrix)
        for column, expected in zip(narrow.pairs, wide.pairs):
            assert np.array_equal(column, expected)
        assert narrow.pairs[0].dtype == narrow.pairs[1].dtype == np.int32
        assert narrow.pairs[2].dtype == dtype
        start = random_init(graph.n, 4)
        assert stress(start, narrow) == stress(start, wide)
        assert np.array_equal(classical_mds(narrow), classical_mds(wide))
        for run in (lambda d: run_sgd(d, start, SgdConfig(iterations=2, seed=4)),
                    lambda d: run_smacof(d, start, SmacofConfig(3))):
            (layout, trace), (expected, expected_trace) = run(narrow), run(wide)
            assert np.array_equal(layout, expected)
            assert trace == expected_trace

    def test_held_bytes_after_search_and_pairs(self):
        g = grid_graph(24, 25)
        all_pairs_shortest_paths(path_graph(3)).pairs  # one-time allocations of a first call
        tracemalloc.start()
        try:
            d = all_pairs_shortest_paths(g)
            d.pairs
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        # a uint8 matrix (n**2) and its table of int32, int32, uint8 per pair
        # (4.5 n**2), against 20 n**2 for float64 targets and int64 indices
        assert held <= 7 * g.n**2 + STRESS_BLOCK * 8
