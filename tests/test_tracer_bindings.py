"""The benchmark's tracer wraps program functions at fixed module bindings.

perfbench/tracer.py fails a traced run when a binding it lists is gone, and
reads a few parameters of the wrapped functions by name.  These checks
catch a refactor that breaks either before the benchmark runs.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

from stresslayout import cli

TRACER_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = load_tracer()


def binding(module, attr):
    return getattr(importlib.import_module(f"stresslayout.{module}"), attr, None)


@pytest.mark.parametrize(
    "module,attr",
    sorted({(module, attr) for module, attr, _ in tracer.BINDINGS + tracer.COUNTED}),
)
def test_binding_is_callable(module, attr):
    assert callable(binding(module, attr)), f"stresslayout.{module}.{attr} is missing"


def parameters(label):
    """Parameters of every function the tracer wraps under span name label."""
    return [
        inspect.signature(binding(module, attr)).parameters
        for module, attr, name in tracer.BINDINGS
        if name == label
    ]


def test_observed_parameters():
    # Tracer._observe reads these arguments by name.
    assert all("dist" in params for params in parameters("sgd.run"))
    for params in parameters("smacof.run"):
        assert isinstance(params["config"].default.max_iterations, int)
    assert "obj" in inspect.signature(binding("cli", "export_csv")).parameters


# Tiny jobs shaped like each benchmark workload's (see perfbench/workloads.py).
WORKLOAD_JOBS = {
    "sgd_mid": [
        ["layout", "grid:4,4", "--alg", "sgd", "--init", "random", "--iters", "3"],
        ["layout", "cycle:12", "--alg", "sgd", "--init", "pivot", "--iters", "3"],
    ],
    "smacof_mid": [
        ["layout", "grid:4,4", "--alg", "smacof", "--init", "pivot"],
        ["layout", "grid:3,5", "--alg", "smacof", "--init", "cmds"],
    ],
    "paper_grid": [
        ["bench", "path:6", "grid:2,3", "--inits", "random,cmds,pivot", "--reps", "1",
         "--iters", "3"],
        ["hybrid", "grid:3,3", "--ks", "0,1", "--reps", "2", "--iters", "3"],
    ],
}


def traced(jobs, workdir):
    """Run cli.main on each job under an installed Tracer; returns the tracer."""
    recorder = tracer.Tracer()
    recorder.install()
    try:
        for index, argv in enumerate(jobs):
            outputs = ["--out", str(workdir / f"{index}.out"),
                       "--trace", str(workdir / f"{index}.csv")]
            assert recorder.job(index, lambda: cli.main([*argv, *outputs])) == 0
    finally:
        recorder.uninstall()
    return recorder


@pytest.mark.parametrize("workload", sorted(WORKLOAD_JOBS))
def test_workload_spans_recorded(workload, tmp_path):
    assert tracer.missing_spans(traced(WORKLOAD_JOBS[workload], tmp_path), workload) == []


@pytest.mark.parametrize("argv,count", [
    (["layout", "grid:5,5", "--alg", "sgd"], 0),
    (["layout", "grid:5,5", "--alg", "sgd", "--init", "pivot", "--pivots", "3"], 3),
    (["layout", "cycle:7", "--alg", "smacof", "--init", "cmds"], 0),
])
def test_bfs_count_is_distance_queries(argv, count, tmp_path):
    # one single-source search per pivot; the distance matrix is built by block BFS
    # without bfs_hops, and the component scan is not counted either
    assert traced([argv], tmp_path).counts.get("graphs.bfs_count", 0) == count


def test_hybrid_builds_one_distance_matrix(tmp_path):
    recorder = traced([WORKLOAD_JOBS["paper_grid"][1]], tmp_path)
    assert [span[0] for span in recorder.spans].count("graphs.apsp") == 1
