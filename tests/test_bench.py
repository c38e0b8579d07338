import io
import math
import tracemalloc

import numpy as np
import pytest

from stresslayout import (
    DeviationReport,
    ExperimentConfig,
    SgdConfig,
    StressTrace,
    all_pairs_shortest_paths,
    classical_mds,
    export_csv,
    grid_graph,
    hybrid_layout,
    path_graph,
    random_init,
    relative_deviation,
    run_grid,
    run_hybrid,
    run_sgd,
    run_smacof,
)
from stresslayout import bench
from stresslayout.bench import parse_traces_csv


def make_trace(graph="g", algorithm="sgd", initializer="random", seed=0,
               values=(3.0, 2.0, 1.0), **kwargs):
    return StressTrace(
        graph=graph,
        algorithm=algorithm,
        initializer=initializer,
        seed=seed,
        values=values,
        **kwargs,
    )


class TestStressTrace:
    def test_requires_values(self):
        with pytest.raises(ValueError, match="initial stress"):
            make_trace(values=())

    def test_smacof_monotonicity_enforced(self):
        with pytest.raises(ValueError, match="increased"):
            make_trace(algorithm="smacof", values=(5.0, 1.0, 2.0))

    def test_smacof_tolerates_tiny_noise(self):
        make_trace(algorithm="smacof", values=(5.0, 1.0, 1.0 + 1e-12))

    def test_sgd_may_fluctuate(self):
        make_trace(algorithm="sgd", values=(5.0, 7.0, 2.0))

    def test_hybrid_checks_majorization_phase_only(self):
        make_trace(algorithm="hybrid", values=(1.0, 9.0, 4.0, 3.0), phase_boundary=1)
        with pytest.raises(ValueError, match="increased"):
            make_trace(algorithm="hybrid", values=(1.0, 9.0, 4.0, 5.0), phase_boundary=1)

    def test_final(self):
        assert make_trace().final == 1.0


class TestRunGrid:
    def test_single_cell_cardinality(self):
        cfg = ExperimentConfig(
            graphs=(("p6", path_graph(6)),),
            algorithms=("sgd",),
            initializers=("random",),
            repetitions=1,
        )
        traces = run_grid(cfg)
        assert len(traces) == 1
        assert traces[0].algorithm == "sgd"

    def test_full_grid_cardinality(self):
        cfg = ExperimentConfig(graphs=(("p8", path_graph(8)),), repetitions=10)
        traces = run_grid(cfg)
        assert len(traces) == 40

    def test_seeds_follow_base(self):
        cfg = ExperimentConfig(
            graphs=(("p5", path_graph(5)),),
            algorithms=("sgd",),
            initializers=("random",),
            repetitions=3,
            base_seed=100,
        )
        assert [t.seed for t in run_grid(cfg)] == [100, 101, 102]

    def test_deterministic(self):
        cfg = ExperimentConfig(graphs=(("g", grid_graph(3, 3)),), repetitions=2)
        a = run_grid(cfg)
        b = run_grid(cfg)
        assert [t.values for t in a] == [t.values for t in b]
        assert [t.run_id for t in a] == [t.run_id for t in b]

    def test_pivot_initializer(self):
        cfg = ExperimentConfig(
            graphs=(("g", grid_graph(3, 3)),),
            algorithms=("smacof",),
            initializers=("pivot",),
            repetitions=1,
        )
        traces = run_grid(cfg)
        assert traces[0].initializer == "pivot"

    def test_unknown_algorithm(self):
        with pytest.raises(ValueError, match="unknown algorithm"):
            ExperimentConfig(
                graphs=(("p5", path_graph(5)),), algorithms=("newton",), repetitions=1
            )

    def test_unknown_initializer(self):
        with pytest.raises(ValueError, match="unknown initializer"):
            ExperimentConfig(graphs=(("p5", path_graph(5)),), initializers=("spectral",))

    @pytest.mark.parametrize("kwargs", [{"algorithms": ("sgd", "smacof", "sgd")},
                                        {"initializers": ("cmds", "cmds")}])
    def test_repeated_cell_rejected(self, kwargs):
        with pytest.raises(ValueError, match="once"):
            ExperimentConfig(graphs=(), **kwargs)

    def test_repeated_graph_name_rejected(self):
        graphs = (("g", path_graph(3)), ("c", path_graph(5)), ("g", path_graph(4)))
        with pytest.raises(ValueError, match="graph name 'g' is given 2 times"):
            ExperimentConfig(graphs=graphs)

    def test_rejects_zero_repetitions(self):
        with pytest.raises(ValueError):
            ExperimentConfig(graphs=(), repetitions=0)

    def test_rejects_negative_base_seed(self):
        with pytest.raises(ValueError, match="--base-seed: seeds must be nonnegative, got -5"):
            ExperimentConfig(graphs=(), base_seed=-5)

    @pytest.mark.parametrize(
        "kwargs,fragment", [({"sgd_iterations": 0}, "iterations"), ({"sgd_eps": 1.0}, "eps")]
    )
    def test_sgd_values_checked_by_sgd_config(self, kwargs, fragment):
        with pytest.raises(ValueError, match=fragment):
            ExperimentConfig(graphs=(), **kwargs)


class TestRelativeDeviation:
    def test_identical_cells_have_zero_deviation(self):
        traces = [
            make_trace(algorithm=a, initializer=i, seed=s, values=(9.0, 4.0))
            for a in ("sgd", "smacof")
            for i in ("random", "cmds")
            for s in range(3)
        ]
        report = relative_deviation(traces)
        assert all(row.deviation == 0.0 for row in report.rows)

    def test_one_percent_cell(self):
        traces = [make_trace(algorithm="smacof", initializer="cmds", values=(9.0, 1.0))]
        traces.append(make_trace(algorithm="sgd", initializer="random", values=(9.0, 1.01)))
        report = relative_deviation(traces)
        by_cell = {(r.algorithm, r.initializer): r for r in report.rows}
        assert by_cell[("sgd", "random")].deviation == pytest.approx(0.01, abs=1e-12)

    def test_baseline_deviation_exactly_zero(self):
        traces = [
            make_trace(algorithm="smacof", initializer="cmds", seed=s, values=(3.0, 1.7))
            for s in range(5)
        ]
        report = relative_deviation(traces)
        assert report.rows[0].deviation == 0.0

    def test_zero_baseline(self):
        # an exactly realizable graph: the reference cell reaches stress 0
        traces = [
            make_trace(algorithm="smacof", initializer="cmds", values=(3.0, 0.0)),
            make_trace(algorithm="smacof", initializer="random", values=(3.0, 0.0)),
            make_trace(algorithm="sgd", initializer="random", values=(3.0, 1e-30)),
        ]
        report = relative_deviation(traces)
        by_cell = {(r.algorithm, r.initializer): r.deviation for r in report.rows}
        assert by_cell == {
            ("smacof", "cmds"): 0.0, ("smacof", "random"): 0.0, ("sgd", "random"): math.inf,
        }

    def test_missing_baseline(self):
        with pytest.raises(ValueError, match="baseline"):
            relative_deviation([make_trace(algorithm="sgd", initializer="random")])

    def test_rows_sorted(self):
        traces = [
            make_trace(graph=g, algorithm=a, initializer=i)
            for g in ("b", "a")
            for a in ("smacof", "sgd")
            for i in ("random", "cmds")
        ]
        report = relative_deviation(traces)
        keys = [(r.graph, r.algorithm, r.initializer) for r in report.rows]
        assert keys == sorted(keys)

    def test_random_penalty_on_elongated_grid(self):
        # an instance where majorization from random starts genuinely gets
        # stuck while the annealed pair updates untangle it
        graph = grid_graph(2, 50)
        cfg = ExperimentConfig(graphs=(("strip", graph),), repetitions=5)
        report = relative_deviation(run_grid(cfg))
        rows = {(r.algorithm, r.initializer): r for r in report.rows}
        smacof_random = rows[("smacof", "random")].deviation
        sgd_random = rows[("sgd", "random")].deviation
        assert smacof_random > 0.05
        assert smacof_random > sgd_random


class TestHybrid:
    def setup_method(self):
        self.dist = all_pairs_shortest_paths(grid_graph(3, 4))

    def test_k0_equals_plain_smacof(self):
        _, values = hybrid_layout(self.dist, 0, SgdConfig(seed=4))
        _, expected = run_smacof(self.dist, random_init(12, 4))
        assert values == expected

    def test_full_k_matches_sgd_prefix(self):
        config = SgdConfig(seed=2)
        k = config.iterations
        _, values = hybrid_layout(self.dist, k, config)
        _, sgd_trace = run_sgd(self.dist, random_init(12, 2), config)
        assert values[: k + 1] == sgd_trace

    def test_layout_variant_returns_final_layout(self):
        layout, values = hybrid_layout(self.dist, 2, SgdConfig(seed=1))
        assert layout.shape == (12, 2)
        assert len(values) > 3

    def test_negative_k_rejected(self):
        with pytest.raises(ValueError):
            hybrid_layout(self.dist, -1, SgdConfig())


class TestRunHybrid:
    def config(self, **kwargs):
        return ExperimentConfig(
            graphs=(("g", grid_graph(3, 4)),), algorithms=("smacof",),
            initializers=("cmds", "random"), repetitions=2, base_seed=5, **kwargs,
        )

    def test_grid_cells_then_hybrid_runs_k_major(self):
        traces = run_hybrid(self.config(), (0, 3))
        assert [(t.algorithm, t.initializer, t.seed, t.phase_boundary) for t in traces] == [
            ("smacof", "cmds", 5, None), ("smacof", "cmds", 6, None),
            ("smacof", "random", 5, None), ("smacof", "random", 6, None),
            ("hybrid", "sgd_0", 5, 0), ("hybrid", "sgd_0", 6, 0),
            ("hybrid", "sgd_3", 5, 3), ("hybrid", "sgd_3", 6, 3),
        ]

    def test_values_equal_hybrid_layout(self):
        config = self.config(sgd_iterations=6, sgd_eps=0.1)
        dist = all_pairs_shortest_paths(grid_graph(3, 4))
        for trace in run_hybrid(config, (2,))[4:]:
            _, values = hybrid_layout(dist, 2, SgdConfig(6, 0.1, trace.seed))
            assert trace.values == tuple(values)

    def test_each_majorization_start_runs_once(self, monkeypatch):
        # smacof x cmds runs once for its 3 seeds and hybrid k = 0 reuses
        # smacof x random: 1 + 3 + 0 + 3 (k = 1) runs, where every cell
        # running its own would make 12
        calls = []
        monkeypatch.setattr(bench, "run_smacof",
                            lambda *args, **kw: calls.append(args) or run_smacof(*args, **kw))
        graph = grid_graph(4, 4)
        config = ExperimentConfig(graphs=(("g", graph),), initializers=("cmds", "random"),
                                  repetitions=3)
        traces = run_hybrid(config, (0, 1))
        assert len(calls) == 7
        dist = all_pairs_shortest_paths(graph)
        cmds = classical_mds(dist)
        majorized = [t for t in traces if t.algorithm != "sgd"]
        assert len(majorized) == 12
        for trace in majorized:
            if trace.algorithm == "hybrid":
                _, values = hybrid_layout(dist, trace.phase_boundary, SgdConfig(seed=trace.seed))
            else:
                start = cmds if trace.initializer == "cmds" else random_init(16, trace.seed)
                _, values = run_smacof(dist, start)
            assert trace.values == tuple(values)

    def test_no_ks_is_run_grid(self):
        assert run_hybrid(self.config(), ()) == run_grid(self.config())

    def test_one_distance_matrix_per_graph(self, monkeypatch):
        calls = []

        def counted(graph):
            calls.append(graph)
            return all_pairs_shortest_paths(graph)

        monkeypatch.setattr(bench, "all_pairs_shortest_paths", counted)
        run_hybrid(self.config(), (0, 1))
        assert len(calls) == 1

    @pytest.mark.parametrize("algorithms,rows", [(("sgd",), 20), (("sgd", "smacof"), 15)])
    def test_holds_one_graph_at_a_time(self, algorithms, rows):
        # a graph's distance matrix and pair table are gone before
        # the next graph's search, so two equal graphs peak as one does
        def peak(*shapes):
            config = ExperimentConfig(
                graphs=tuple((f"grid_{r}x{c}", grid_graph(r, c)) for r, c in shapes),
                algorithms=algorithms, initializers=("cmds",), repetitions=1,
                sgd_iterations=2,
            )
            tracemalloc.start()
            try:
                run_grid(config)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak((3, 3))  # first-call allocations stay out of the measured runs
        one = peak((rows, 30))
        assert peak((rows, 30), (30, rows)) <= 1.02 * one


class TestCsv:
    def test_trace_rows(self):
        out = io.StringIO()
        export_csv([make_trace(values=(3.0, 2.0, 1.0))], out)
        lines = out.getvalue().splitlines()
        assert lines[0] == "graph,algorithm,initializer,seed,iteration,stress"
        assert len(lines) == 4
        assert lines[1] == "g,sgd,random,0,0,3.0"

    def test_empty_traces(self):
        out = io.StringIO()
        export_csv([], out)
        assert out.getvalue().splitlines() == [
            "graph,algorithm,initializer,seed,iteration,stress"
        ]

    def test_round_trip_preserves_floats(self):
        values = (1.0 / 3.0, 2.0**-45, 123456.789012345)
        out = io.StringIO()
        export_csv([make_trace(values=values)], out)
        parsed = parse_traces_csv(io.StringIO(out.getvalue()))
        assert parsed[0].values == values

    @pytest.mark.parametrize("iterations", [(0, 1, 0, 1), (0, 2), (1, 2), (0, 1, 1)])
    def test_runs_sharing_a_key_refused(self, iterations):
        rows = "".join(f"g,hybrid,sgd_1,0,{t},{1.0 / (t + 1)!r}\n" for t in iterations)
        with pytest.raises(ValueError, match="g/hybrid/sgd_1/s0"):
            parse_traces_csv(io.StringIO(",".join(bench.TRACE_HEADER) + "\n" + rows))

    def test_interleaved_keys_parse_as_separate_runs(self):
        text = ("graph,algorithm,initializer,seed,iteration,stress\n"
                "g,sgd,random,0,0,3.0\ng,sgd,random,1,0,4.0\n"
                "g,sgd,random,0,1,2.0\ng,sgd,random,1,1,1.0\n")
        parsed = parse_traces_csv(io.StringIO(text))
        assert [(t.run_id, t.values) for t in parsed] == [
            ("g/sgd/random/s0", (3.0, 2.0)), ("g/sgd/random/s1", (4.0, 1.0))]

    def test_report_schema(self):
        traces = [make_trace(algorithm="smacof", initializer="cmds", values=(2.0, 1.5))]
        out = io.StringIO()
        export_csv(relative_deviation(traces), out)
        lines = out.getvalue().splitlines()
        assert lines[0] == "graph,algorithm,initializer,mean_final_stress,deviation"
        assert lines[1] == "g,smacof,cmds,1.5,0.0"

    def test_file_destination(self, tmp_path):
        target = tmp_path / "traces.csv"
        export_csv([make_trace()], target)
        assert target.read_text().startswith("graph,algorithm")

    def test_deterministic_bytes(self, tmp_path):
        cfg = ExperimentConfig(graphs=(("p", path_graph(6)),), repetitions=2)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        traces = run_grid(cfg)
        export_csv(traces, a)
        export_csv(run_grid(cfg), b)
        assert a.read_bytes() == b.read_bytes()
        assert [t.run_id for t in parse_traces_csv(a)] == [t.run_id for t in traces]

    def test_report_type(self):
        traces = [make_trace(algorithm="smacof", initializer="cmds")]
        assert isinstance(relative_deviation(traces), DeviationReport)
