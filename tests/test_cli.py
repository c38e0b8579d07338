import csv
import math

import pytest

from stresslayout import (
    all_pairs_shortest_paths,
    bench,
    cli,
    cycle_graph,
    generate,
    graphs,
    grid_graph,
    path_graph,
)
from stresslayout.cli import EDGE_BYTES, RUN_FLOOR, build_parser, main, peak_bytes
from helpers import random_connected_graph

P3_MTX = "%%MatrixMarket matrix coordinate pattern symmetric\n3 3 2\n2 1\n3 2\n"
DISCONNECTED_EDGES = "0 1\n2 3\n"


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


@pytest.fixture
def no_loading(monkeypatch):
    """Make loading a graph or building its distance matrix fail the test."""
    def fail(*args):
        raise AssertionError("no graph may be loaded and no distance matrix built")

    monkeypatch.setattr(cli, "load_graph", fail)
    monkeypatch.setattr(cli, "all_pairs_shortest_paths", fail)
    monkeypatch.setattr(bench, "all_pairs_shortest_paths", fail)


def final_stress_from_trace(path):
    with open(path, newline="") as handle:
        rows = list(csv.DictReader(handle))
    return float(rows[-1]["stress"])


class TestLayoutCommand:
    def test_happy_path(self, workdir, capsys):
        (workdir / "p3.mtx").write_text(P3_MTX)
        code = main(["layout", "p3.mtx", "--alg", "sgd", "--init", "random", "--seed", "1"])
        assert code == 0
        assert (workdir / "p3.svg").exists()
        assert (workdir / "p3.trace.csv").exists()
        assert "final stress" in capsys.readouterr().out

    def test_unreadable_input_exits_3_without_outputs(self, workdir, capsys):
        code = main(["layout", "missing.mtx"])
        assert code == 3
        assert "error" in capsys.readouterr().err
        assert list(workdir.iterdir()) == []

    def test_malformed_input_exits_1(self, workdir, capsys):
        (workdir / "bad.mtx").write_text("%%NotAMatrix\n")
        assert main(["layout", "bad.mtx"]) == 1
        assert "error" in capsys.readouterr().err

    def test_strict_disconnected_exits_2(self, workdir, capsys):
        (workdir / "two.edges").write_text(DISCONNECTED_EDGES)
        assert main(["layout", "two.edges", "--strict"]) == 2
        assert "components" in capsys.readouterr().err

    def test_disconnected_reduced_with_warning(self, workdir, capsys):
        (workdir / "two.edges").write_text("0 1\n1 2\n5 6\n")
        assert main(["layout", "two.edges"]) == 0
        assert "warning" in capsys.readouterr().err

    def test_smacof_cmds_on_p3_reaches_zero_stress(self, workdir):
        (workdir / "p3.mtx").write_text(P3_MTX)
        code = main(["layout", "p3.mtx", "--alg", "smacof", "--init", "cmds",
                     "--out", "o.svg", "--trace", "t.csv"])
        assert code == 0
        assert final_stress_from_trace(workdir / "t.csv") <= 1e-6

    def test_snapshots_written(self, workdir):
        code = main(["layout", "grid:3,3", "--snapshots", "1,3", "--iters", "5",
                     "--out", "g.svg", "--trace", "g.csv"])
        assert code == 0
        assert (workdir / "g.iter1.svg").exists()
        assert (workdir / "g.iter3.svg").exists()
        assert not (workdir / "g.iter2.svg").exists()

    @pytest.mark.parametrize("value", ["1,x", "0,-2,99", "0", "-1"])
    def test_bad_snapshots_are_usage_errors(self, workdir, capsys, no_loading, value):
        with pytest.raises(SystemExit) as info:
            main(["layout", "grid:3,3", f"--snapshots={value}"])
        assert info.value.code == 2
        assert "--snapshots" in capsys.readouterr().err
        assert list(workdir.iterdir()) == []

    @pytest.mark.parametrize("argv", [
        ["--iters", "5", "--snapshots", "3,99"],
        ["--alg", "smacof", "--iters", "5", "--snapshots", "6"],
        ["--alg", "hybrid", "--sgd-k", "2", "--snapshots", "1,503"],
    ])
    def test_unreachable_snapshots_fail_before_loading(self, workdir, capsys, no_loading, argv):
        code = main(["layout", "grid:3,3", *argv])
        assert code == 1
        assert "--snapshots" in capsys.readouterr().err
        assert list(workdir.iterdir()) == []

    def test_snapshots_not_reached_are_reported(self, workdir, capsys):
        # one sweep places path:2's two vertices exactly (stress 0.0 from
        # this seed), so majorization stops after its second sweep
        code = main(["layout", "path:2", "--alg", "smacof", "--init", "random", "--seed", "0",
                     "--snapshots", "1,3,400", "--out", "g.svg", "--trace", "g.csv"])
        assert code == 0
        err = capsys.readouterr().err
        assert [line for line in err.splitlines() if "--snapshots" in line] == [
            "warning: --snapshots 3,400 not rendered: the run stopped after 2 iterations"
        ]
        assert sorted(p.name for p in workdir.iterdir()) == ["g.csv", "g.iter1.svg", "g.svg"]

    def test_hybrid_snapshots_reach_past_iters(self, workdir, capsys):
        # the majorization phase continues the iteration count past --iters
        code = main(["layout", "cycle:8", "--alg", "hybrid", "--sgd-k", "2", "--iters", "5",
                     "--snapshots", "6", "--out", "h.svg", "--trace", "h.csv"])
        assert code == 0
        assert (workdir / "h.iter6.svg").exists()
        assert "--snapshots" not in capsys.readouterr().err

    def test_hybrid_algorithm(self, workdir):
        code = main(["layout", "cycle:8", "--alg", "hybrid", "--sgd-k", "2",
                     "--out", "h.svg", "--trace", "h.csv"])
        assert code == 0
        assert (workdir / "h.svg").exists()

    def test_hybrid_rejects_init(self, workdir, capsys):
        code = main(["layout", "grid:5,5", "--alg", "hybrid", "--init", "cmds",
                     "--out", "h.svg", "--trace", "h.csv"])
        assert code == 1
        assert "--init" in capsys.readouterr().err
        assert list(workdir.iterdir()) == []

    @pytest.mark.parametrize("argv", [["--sgd-k", "-1"], ["--sgd-k", "16"],
                                      ["--sgd-k", "6", "--iters", "5"]])
    def test_hybrid_bad_k_fails_before_loading(self, workdir, capsys, monkeypatch, argv):
        def fail(graph):
            raise AssertionError("all_pairs_shortest_paths must not be called")

        monkeypatch.setattr(cli, "all_pairs_shortest_paths", fail)
        assert main(["layout", "grid:5,5", "--alg", "hybrid", *argv]) == 1
        assert "--sgd-k" in capsys.readouterr().err
        assert list(workdir.iterdir()) == []

    @pytest.mark.parametrize(
        "argv",
        [
            ["--alg", "smacof", "--eps", "0.9"],
            ["--pivots", "5"],
            ["--alg", "smacof", "--init", "cmds", "--pivots", "5"],
            ["--sgd-k", "3"],
            ["--alg", "smacof", "--sgd-k", "3"],
        ],
    )
    def test_unused_flags_rejected(self, workdir, capsys, no_loading, argv):
        assert main(["layout", "grid:5,5", *argv]) == 1
        assert argv[-2] in capsys.readouterr().err
        assert list(workdir.iterdir()) == []

    @pytest.mark.parametrize(
        "argv",
        [
            ["--eps", "2"],
            ["--alg", "hybrid", "--eps", "0"],
            ["--init", "pivot", "--pivots", "0"],
            ["--init", "pivot", "--pivots", "-3"],
        ],
    )
    def test_out_of_range_fails_before_loading(self, workdir, capsys, no_loading, argv):
        assert main(["layout", "grid:5,5", *argv]) == 1
        assert "error" in capsys.readouterr().err
        assert list(workdir.iterdir()) == []

    def test_pivot_init(self, workdir):
        code = main(["layout", "grid:4,4", "--alg", "smacof", "--init", "pivot",
                     "--pivots", "6", "--out", "p.svg", "--trace", "p.csv"])
        assert code == 0

    def test_one_pivot(self, workdir):
        # one pivot starts every vertex at the origin; majorization separates them
        code = main(["layout", "grid:4,4", "--alg", "smacof", "--init", "pivot",
                     "--pivots", "1", "--out", "p.svg", "--trace", "p.csv"])
        assert code == 0
        assert math.isfinite(final_stress_from_trace("p.csv"))

    @pytest.mark.parametrize("alg", ["sgd", "smacof"])
    def test_zero_iterations_rejected(self, workdir, capsys, alg):
        assert main(["layout", "path:5", "--alg", alg, "--iters", "0"]) == 1
        assert "error" in capsys.readouterr().err
        assert list(workdir.iterdir()) == []

    def test_deterministic_outputs(self, workdir):
        for prefix in ("a", "b"):
            code = main(["layout", "grid:4,4", "--seed", "3",
                         "--out", f"{prefix}.svg", "--trace", f"{prefix}.csv"])
            assert code == 0
        assert (workdir / "a.svg").read_bytes() == (workdir / "b.svg").read_bytes()
        assert (workdir / "a.csv").read_bytes() == (workdir / "b.csv").read_bytes()


class TestBenchCommand:
    def test_report_cells(self, workdir):
        code = main(["bench", "path:8", "--reps", "2", "--out", "report.csv"])
        assert code == 0
        with open(workdir / "report.csv", newline="") as handle:
            rows = list(csv.DictReader(handle))
        cells = {(r["algorithm"], r["initializer"]) for r in rows}
        assert cells == {("sgd", "random"), ("sgd", "cmds"),
                         ("smacof", "random"), ("smacof", "cmds")}
        baseline = next(r for r in rows
                        if r["algorithm"] == "smacof" and r["initializer"] == "cmds")
        assert float(baseline["deviation"]) == 0.0

    def test_byte_identical_reports(self, workdir):
        for name in ("r1.csv", "r2.csv"):
            code = main(["bench", "path:8", "--reps", "3", "--base-seed", "7",
                         "--out", name, "--trace", f"t_{name}"])
            assert code == 0
        assert (workdir / "r1.csv").read_bytes() == (workdir / "r2.csv").read_bytes()
        assert (workdir / "t_r1.csv").read_bytes() == (workdir / "t_r2.csv").read_bytes()

    def test_stdout_default(self, workdir, capsys):
        assert main(["bench", "path:6", "--reps", "1"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("graph,algorithm,initializer,mean_final_stress,deviation")

    def test_zero_stress_baseline(self, workdir):
        # path:3 is exactly realizable: smacof from cmds reaches stress 0.0
        code = main(["bench", "path:3", "--reps", "1", "--out", "r.csv", "--trace", "t.csv"])
        assert code == 0
        with open(workdir / "r.csv", newline="") as handle:
            rows = {(r["algorithm"], r["initializer"]): r for r in csv.DictReader(handle)}
        assert float(rows[("smacof", "cmds")]["mean_final_stress"]) == 0.0
        assert float(rows[("smacof", "cmds")]["deviation"]) == 0.0
        assert (workdir / "t.csv").exists()

    def test_multiple_graphs(self, workdir):
        code = main(["bench", "path:6", "cycle:6", "--reps", "1", "--out", "r.csv"])
        assert code == 0
        with open(workdir / "r.csv", newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert {r["graph"] for r in rows} == {"path_6", "cycle_6"}

    @pytest.mark.parametrize(
        "extra", [["--inits", "random"], ["--algs", "sgd"], ["--algs", "sgd,foo"],
                  ["--inits", "cmds,spectral"]]
    )
    def test_bad_cells_fail_before_running(self, workdir, capsys, monkeypatch, extra):
        def fail(config):
            raise AssertionError("run_grid must not be called")

        monkeypatch.setattr(cli, "run_grid", fail)
        assert main(["bench", "grid:3,3", "--reps", "1", *extra]) == 1
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "extra", [["--algs", "smacof,smacof"], ["--inits", "cmds,cmds"],
                  ["--algs", "smacof,sgd,smacof", "--inits", "cmds,random"]]
    )
    def test_repeated_cells_fail_before_loading(self, workdir, capsys, no_loading, extra):
        assert main(["bench", "path:6", "--reps", "1", "--trace", "t.csv", *extra]) == 1
        assert extra[0] in capsys.readouterr().err
        assert list(workdir.iterdir()) == []

    @pytest.mark.parametrize("inputs, name", [(["path:6", "path:6"], "'path_6'"),
                                              (["a/g.edges", "b/g.edges"], "'g'")],
                             ids=["synthetic", "file-stem"])
    def test_repeated_graph_names_fail_before_running(self, workdir, capsys, monkeypatch,
                                                      inputs, name):
        # two different graphs (a 3- and a 4-vertex path) that share a file stem
        for folder, edges in (("a", "0 1\n1 2\n"), ("b", "0 1\n1 2\n2 3\n")):
            (workdir / folder).mkdir()
            (workdir / folder / "g.edges").write_text(edges)

        def fail(config):
            raise AssertionError("run_grid must not be called")

        monkeypatch.setattr(cli, "run_grid", fail)
        assert main(["bench", *inputs, "--reps", "1", "--trace", "t.csv"]) == 1
        assert f"graph name {name} is given 2 times" in capsys.readouterr().err
        assert sorted(p.name for p in workdir.iterdir()) == ["a", "b"]

    @pytest.mark.parametrize("extra", [["--iters", "3"], ["--eps", "0.5"],
                                       ["--iters", "15", "--eps", "0.5"]])
    def test_sgd_flags_without_sgd_fail_before_loading(self, workdir, capsys, monkeypatch,
                                                      no_loading, extra):
        def fail(config):
            raise AssertionError("run_grid must not be called")

        monkeypatch.setattr(cli, "run_grid", fail)
        argv = ["bench", "path:6", "--algs", "smacof", "--inits", "cmds,random", "--reps", "2",
                "--out", "r.csv", *extra]
        assert main(argv) == 1
        assert capsys.readouterr().err == f"error: {extra[0]} applies only with sgd in --algs\n"
        assert list(workdir.iterdir()) == []


class TestHybridCommand:
    def test_report_rows(self, workdir):
        code = main(["hybrid", "cycle:8", "--ks", "0,1", "--reps", "2", "--out", "h.csv"])
        assert code == 0
        with open(workdir / "h.csv", newline="") as handle:
            rows = list(csv.DictReader(handle))
        inits = {(r["algorithm"], r["initializer"]) for r in rows}
        assert ("hybrid", "sgd_0") in inits
        assert ("hybrid", "sgd_1") in inits
        assert ("smacof", "cmds") in inits
        baseline = next(r for r in rows
                        if r["algorithm"] == "smacof" and r["initializer"] == "cmds")
        assert float(baseline["deviation"]) == 0.0

    def test_deterministic(self, workdir):
        for name in ("h1.csv", "h2.csv"):
            assert main(["hybrid", "path:7", "--ks", "1", "--reps", "2",
                         "--out", name]) == 0
        assert (workdir / "h1.csv").read_bytes() == (workdir / "h2.csv").read_bytes()

    @pytest.mark.parametrize("ks", ["1,20"])
    def test_bad_ks_fail_before_running(self, workdir, capsys, monkeypatch, ks):
        def fail(config, ks):
            raise AssertionError("run_hybrid must not be called")

        monkeypatch.setattr(cli, "run_hybrid", fail)
        assert main(["hybrid", "path:30", f"--ks={ks}", "--reps", "1", "--out", "h.csv"]) == 1
        err = capsys.readouterr().err
        assert "error" in err and ks.split(",")[-1] in err
        assert not (workdir / "h.csv").exists()

    @pytest.mark.parametrize("ks", ["1,1", "0,3,0"])
    def test_repeated_ks_fail_before_loading(self, workdir, capsys, no_loading, ks):
        assert main(["hybrid", "path:6", f"--ks={ks}", "--reps", "1", "--trace", "t.csv"]) == 1
        assert "--ks" in capsys.readouterr().err
        assert list(workdir.iterdir()) == []

    @pytest.mark.parametrize("ks", ["-1", "0,-3", "1,x", "two"])
    def test_bad_ks_are_usage_errors(self, workdir, capsys, no_loading, ks):
        with pytest.raises(SystemExit) as info:
            main(["hybrid", "path:30", f"--ks={ks}", "--reps", "1", "--out", "h.csv"])
        assert info.value.code == 2
        assert "--ks" in capsys.readouterr().err
        assert list(workdir.iterdir()) == []


@pytest.mark.parametrize(
    "argv",
    [
        ["bench", "grid:3,3", "--eps", "1.5"],
        ["bench", "grid:3,3", "--iters", "0"],
        ["bench", "grid:3,3", "--reps", "0"],
        ["hybrid", "grid:3,3", "--ks", "0", "--eps", "0"],
        ["hybrid", "grid:3,3", "--ks", "0", "--iters", "0"],
    ],
)
def test_experiment_values_checked_before_loading(workdir, capsys, no_loading, argv):
    assert main([*argv, "--out", "r.csv", "--trace", "t.csv"]) == 1
    assert "error" in capsys.readouterr().err
    assert list(workdir.iterdir()) == []


@pytest.mark.parametrize(
    "argv,flag",
    [
        (["layout", "path:3", "--seed", "-1"], "--seed"),
        (["layout", "path:3", "--alg", "smacof", "--init", "pivot", "--seed", "-1"], "--seed"),
        (["bench", "path:4", "--base-seed", "-5"], "--base-seed"),
        (["hybrid", "path:4", "--ks", "0", "--base-seed", "-5"], "--base-seed"),
    ],
)
def test_negative_seed_fails_before_loading(workdir, capsys, no_loading, argv, flag):
    assert main([*argv, "--out", "o", "--trace", "t.csv"]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {flag}") and "must be nonnegative" in err
    assert list(workdir.iterdir()) == []


class TestTooFewVertices:
    @pytest.mark.parametrize(
        "argv",
        [
            ["layout", "path:1", "--alg", "sgd"],
            ["layout", "path:1", "--alg", "smacof"],
            ["layout", "path:1", "--alg", "hybrid"],
            ["bench", "path:1", "--reps", "1", "--out", "r.csv", "--trace", "t.csv"],
            ["hybrid", "path:1", "--reps", "1", "--out", "h.csv", "--trace", "t.csv"],
        ],
    )
    def test_single_vertex_exits_1_without_outputs(self, workdir, capsys, argv):
        assert main(argv) == 1
        assert "at least two" in capsys.readouterr().err
        assert list(workdir.iterdir()) == []

    def test_info_still_works(self, workdir, capsys):
        assert main(["info", "path:1"]) == 0
        assert "vertices: 1" in capsys.readouterr().out


class TestInfoCommand:
    def test_reports_statistics(self, workdir, capsys):
        (workdir / "two.edges").write_text("0 1\n1 2\n5 6\n")
        assert main(["info", "two.edges"]) == 0
        out = capsys.readouterr().out
        assert "vertices: 5" in out
        assert "components: 2" in out
        assert "largest component: 3" in out
        assert "diameter" in out

    @pytest.mark.parametrize(
        "graph",
        [path_graph(2), path_graph(17), cycle_graph(12), cycle_graph(13), grid_graph(4, 7),
         random_connected_graph(40, 8, 1), random_connected_graph(90, 18, 2)],
    )
    def test_diameter_equals_distance_matrix_max(self, workdir, capsys, monkeypatch, graph):
        expected = int(all_pairs_shortest_paths(graph).matrix.max())
        (workdir / "g.edges").write_text("".join(f"{i} {j}\n" for i, j in graph.edges))

        def fail(graph):
            raise AssertionError("info must not build the distance matrix")

        monkeypatch.setattr(cli, "all_pairs_shortest_paths", fail)
        assert main(["info", "g.edges"]) == 0
        assert f"diameter (largest component): {expected}\n" in capsys.readouterr().out

    def test_strict_disconnected_exits_2(self, workdir, capsys):
        (workdir / "d.edges").write_text(DISCONNECTED_EDGES)
        assert main(["layout", "d.edges", "--strict"]) == 2
        layout_err = capsys.readouterr().err
        assert main(["info", "d.edges", "--strict"]) == 2
        out, err = capsys.readouterr()
        assert err == layout_err == "error: d.edges: graph has 2 components (strict mode)\n"
        assert out == ""
        assert main(["info", "d.edges"]) == 0
        assert "components: 2" in capsys.readouterr().out

    def test_strict_connected_prints_statistics(self, workdir, capsys):
        assert main(["info", "grid:3,4"]) == 0
        plain = capsys.readouterr().out
        assert main(["info", "grid:3,4", "--strict"]) == 0
        assert capsys.readouterr().out == plain

    @pytest.mark.parametrize("command", ["info", "layout"])
    def test_one_component_search(self, workdir, monkeypatch, command):
        # the reduction to the largest component reuses the components its caller found
        searches = []

        def counted(graph):
            searches.append(graph.n)
            return search(graph)

        search = graphs.connected_components
        monkeypatch.setattr(graphs, "connected_components", counted)
        monkeypatch.setattr(cli, "connected_components", counted)
        (workdir / "two.edges").write_text("0 1\n1 2\n5 6\n")
        assert main([command, "two.edges"]) == 0
        assert searches == [5]


class TestSizeGuard:
    # edge bounds of the specs below: path n - 1, grid 2rc - r - c, complete n(n - 1)/2
    EDGES = {"grid_20x30": 1150, "path_99999999": 99999998, "complete_7000": 24496500}

    def test_estimate_terms(self):
        n, m = 1000, 2500
        sgd = peak_bytes(n, m, "sgd")
        assert sgd == pytest.approx(RUN_FLOOR + EDGE_BYTES * m + (8 + 12 + 0.15 * 8) * n * n,
                                    abs=1)
        assert peak_bytes(n, m, "smacof") == peak_bytes(n, m, "hybrid")
        assert peak_bytes(n, m, "smacof") - sgd == pytest.approx(8 * n * n, abs=1)
        assert peak_bytes(2 * n, m, "sgd") > sgd
        assert peak_bytes(n, m + 1, "sgd") - sgd == EDGE_BYTES
        # loading alone (info) has no n**2 terms
        assert peak_bytes(n, m) == RUN_FLOOR + EDGE_BYTES * m

    def test_limit_is_physical_memory(self):
        limit = cli.memory_limit()
        assert limit is None or limit > peak_bytes(2000, 3910, "smacof")

    @pytest.mark.parametrize(
        "argv, n, alg",
        [
            (["layout", "grid:20,30", "--alg", "sgd"], 600, "sgd"),
            (["layout", "grid:20,30", "--alg", "smacof"], 600, "smacof"),
            (["layout", "grid:20,30", "--alg", "hybrid"], 600, "hybrid"),
            (["bench", "path:5", "grid:20,30", "cycle:7", "--reps", "1",
              "--out", "r.csv"], 600, "smacof"),
            (["hybrid", "grid:20,30", "--reps", "1", "--out", "h.csv"], 600, "smacof"),
        ],
    )
    def test_oversized_exits_1_before_distances(self, workdir, capsys, monkeypatch, argv, n, alg):
        estimate = peak_bytes(n, self.EDGES["grid_20x30"], alg)

        def fail(graph):
            raise AssertionError("no distance matrix may be built")

        monkeypatch.setattr(cli, "memory_limit", lambda: estimate - 1)
        monkeypatch.setattr(cli, "all_pairs_shortest_paths", fail)
        monkeypatch.setattr(bench, "all_pairs_shortest_paths", fail)
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert (f"grid_20x30: a run on n = {n} vertices and m = 1150 edges needs about "
                f"{estimate / 2**20:.0f} MiB") in err
        assert f"the {(estimate - 1) / 2**20:.0f} MiB of physical memory" in err
        assert list(workdir.iterdir()) == []

    @pytest.mark.parametrize("argv, name, n, alg", [
        (["layout", "path:99999999"], "path_99999999", 99999999, "sgd"),
        (["bench", "grid:20,30", "path:5", "--reps", "1", "--out", "r.csv"],
         "grid_20x30", 600, "smacof"),
    ])
    def test_synthetic_spec_checked_before_generate(self, workdir, capsys, monkeypatch,
                                                   argv, name, n, alg):
        m = self.EDGES[name]
        estimate = peak_bytes(n, m, alg)

        def fail(*args):
            raise AssertionError("an oversized or later input was generated")

        monkeypatch.setattr(cli, "memory_limit", lambda: estimate - 1)
        monkeypatch.setattr(cli, "generate", fail)
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert (f"{name}: a run on n = {n} vertices and m = {m} edges needs about "
                f"{estimate / 2**20:.0f} MiB") in err
        assert list(workdir.iterdir()) == []

    @pytest.mark.parametrize("argv, name, n, alg", [
        (["layout", "complete:7000"], "complete_7000", 7000, "sgd"),
        (["info", "path:99999999"], "path_99999999", 99999999, None),
    ])
    def test_edges_checked_before_generate(self, workdir, capsys, monkeypatch, argv, name, n, alg):
        # both fit 8 GiB by their vertices alone; building their edges does not
        m = self.EDGES[name]
        monkeypatch.setattr(cli, "memory_limit", lambda: 8 * 2**30)
        monkeypatch.setattr(cli, "generate", lambda *args: pytest.fail("generate was called"))
        assert peak_bytes(n, 0, alg) < 8 * 2**30
        assert main(argv) == 1
        estimate = peak_bytes(n, m, alg)
        assert (f"{name}: a run on n = {n} vertices and m = {m} edges needs about "
                f"{estimate / 2**20:.0f} MiB, more than the 8192 MiB") in capsys.readouterr().err
        assert list(workdir.iterdir()) == []

    def test_bench_stops_before_a_dense_input(self, workdir, capsys, monkeypatch):
        generated = []

        def grid_only(*args):
            if args != ("grid", 20, 30):
                pytest.fail(f"generate{args} was called")
            generated.append(args)
            return generate(*args)

        monkeypatch.setattr(cli, "memory_limit", lambda: 8 * 2**30)
        monkeypatch.setattr(cli, "generate", grid_only)
        assert main(["bench", "grid:20,30", "complete:7000", "--reps", "1",
                     "--out", "r.csv"]) == 1
        assert generated == [("grid", 20, 30)]
        assert "complete_7000: a run on n = 7000 vertices" in capsys.readouterr().err
        assert list(workdir.iterdir()) == []

    def test_wrong_arity_keeps_its_message(self, workdir, capsys, monkeypatch):
        monkeypatch.setattr(cli, "memory_limit", lambda: RUN_FLOOR)
        monkeypatch.setattr(cli, "generate", lambda *args: pytest.fail("generate was called"))
        assert main(["layout", "grid:99999999"]) == 1
        assert "grid takes 2 size parameter(s), got 1" in capsys.readouterr().err

    def test_file_checked_after_reduction(self, workdir, capsys, monkeypatch):
        # a 30-vertex path plus a separate edge: the guard sees the 30 kept vertices
        edges = [(i, i + 1) for i in range(29)] + [(30, 31)]
        (workdir / "g.edges").write_text("".join(f"{i} {j}\n" for i, j in edges))
        estimate = peak_bytes(30, 29, "sgd")
        monkeypatch.setattr(cli, "memory_limit", lambda: estimate - 1)
        assert main(["layout", "g.edges"]) == 1
        err = capsys.readouterr().err
        assert (f"g: a run on n = 30 vertices and m = 29 edges needs about "
                f"{estimate / 2**20:.0f} MiB") in err

    @pytest.mark.parametrize("argv", [
        ["info", "g.edges"],
        ["info", "g.mtx"],
        ["layout", "g.edges"],
        ["bench", "g.edges", "--reps", "1", "--out", "r.csv"],
        ["hybrid", "g.edges", "--reps", "1", "--out", "h.csv"],
    ])
    def test_file_checked_before_reading(self, workdir, capsys, monkeypatch, argv):
        text = {"g.edges": "".join(f"{i} {i + 1}\n" for i in range(100)),
                "g.mtx": P3_MTX}[argv[1]]
        (workdir / argv[1]).write_text(text)
        size = len(text)
        estimate = peak_bytes(0, (size + 1) // 4)

        def fail(*args):
            raise AssertionError("the file was parsed")

        monkeypatch.setattr(cli, "memory_limit", lambda: estimate - 1)
        monkeypatch.setattr(cli, "parse_edge_list", fail)
        monkeypatch.setattr(cli, "parse_matrix_market", fail)
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err == (f"error: g: loading a file of {size} bytes (at most m = {(size + 1) // 4} "
                       f"edges) needs about {estimate / 2**20:.0f} MiB, more than the "
                       f"{(estimate - 1) / 2**20:.0f} MiB of physical memory\n")
        assert [p.name for p in workdir.iterdir()] == [argv[1]]

    @pytest.mark.parametrize("text", ["0 1\n" * 50, "0 1\n" * 49 + "0 1"],
                             ids=["newline", "no_final_newline"])
    def test_file_bound_is_tight_for_shortest_lines(self, workdir, capsys, monkeypatch, text):
        # 50 lines of the shortest form, "0 1", hold 50 edges: the bound charges no more
        (workdir / "g.edges").write_text(text)
        monkeypatch.setattr(cli, "memory_limit", lambda: peak_bytes(0, 50))
        assert main(["info", "g.edges"]) == 0
        monkeypatch.setattr(cli, "memory_limit", lambda: peak_bytes(0, 50) - 1)
        assert main(["info", "g.edges"]) == 1
        assert "at most m = 50 edges" in capsys.readouterr().err

    def test_fits_at_the_limit(self, workdir, monkeypatch):
        monkeypatch.setattr(cli, "memory_limit", lambda: peak_bytes(9, 12, "sgd"))
        assert main(["layout", "grid:3,3", "--alg", "sgd", "--out", "g.svg",
                     "--trace", "g.csv"]) == 0
        monkeypatch.setattr(cli, "memory_limit", lambda: None)
        assert main(["layout", "grid:3,3", "--alg", "smacof", "--out", "g.svg",
                     "--trace", "g.csv"]) == 0


class TestHelp:
    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["--help"])
        assert info.value.code == 0

    def test_layout_help_documents_flags(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["layout", "--help"])
        assert info.value.code == 0
        text = capsys.readouterr().out
        for flag in ("--alg", "--init", "--seed", "--iters", "--eps", "--pivots",
                     "--snapshots", "--format", "--strict", "--out", "--trace"):
            assert flag in text

    def test_bench_help_documents_flags(self, capsys):
        with pytest.raises(SystemExit):
            main(["bench", "--help"])
        text = capsys.readouterr().out
        for flag in ("--reps", "--base-seed", "--out", "--trace"):
            assert flag in text

    @pytest.mark.parametrize("command", ["bench", "hybrid"])
    def test_sgd_flag_defaults_shown(self, capsys, command):
        with pytest.raises(SystemExit):
            main([command, "--help"])
        text = " ".join(capsys.readouterr().out.split())
        assert "--iters ITERS SGD schedule length (default: 15)" in text
        assert "--eps EPS final relative SGD step (default: 0.01)" in text

    def test_parser_builds(self):
        assert build_parser().prog == "stresslayout"


class TestFormatOverride:
    def test_edge_list_with_mtx_extension(self, workdir):
        (workdir / "really_edges.mtx").write_text("0 1\n1 2\n")
        assert main(["layout", "really_edges.mtx", "--format", "edges",
                     "--out", "e.svg", "--trace", "e.csv"]) == 0

    def test_synthetic_specs(self, workdir, capsys):
        assert main(["info", "grid:2,3"]) == 0
        assert "vertices: 6" in capsys.readouterr().out

    def test_unknown_family_is_a_file_path(self, workdir, capsys):
        assert main(["layout", "star:5"]) == 3
        assert "star:5" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["layout", "grid:3,3", "--format", "mtx"],
        ["bench", "path:6", "cycle:5", "--reps", "1", "--format", "edges"],
        ["hybrid", "path:6", "--ks", "0", "--reps", "1", "--format", "edges"],
        ["info", "path:4", "--format", "mtx"],
    ])
    def test_synthetic_inputs_only_fail(self, workdir, capsys, no_loading, argv):
        assert main(argv) == 1
        assert capsys.readouterr().err == "error: --format applies only to file inputs\n"
        assert list(workdir.iterdir()) == []

    def test_file_among_synthetic_inputs(self, workdir):
        (workdir / "g.edges").write_text("0 1\n1 2\n")
        assert main(["bench", "g.edges", "path:6", "--format", "edges", "--reps", "1",
                     "--out", "r.csv"]) == 0
