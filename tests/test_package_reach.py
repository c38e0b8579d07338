"""The package holds only code that a run executes.

A fixed set of small command-line jobs, run under sys.settrace, must enter
every module-level function of stresslayout: together they use every
subcommand, algorithm, initializer and input format.  A function that no
job reaches belongs in the tests (tests/helpers.py holds the oracles) or
nowhere.
"""

import importlib
import inspect
import sys
from pathlib import Path

import stresslayout
from stresslayout import cli

P3_MTX = "%%MatrixMarket matrix coordinate pattern symmetric\n3 3 2\n2 1\n3 2\n"

# Functions no job needs to reach, each with the reason it stays in the package.
UNREACHED = {
    # the benchmark's report checks read every trace CSV back through it
    "bench.parse_traces_csv",
}

JOBS = [
    ["layout", "g.edges", "--alg", "sgd", "--init", "cmds"],
    ["layout", "p3.mtx", "--alg", "smacof", "--init", "pivot"],
    ["layout", "complete:5", "--alg", "hybrid"],
    # one pivot starts every vertex at the origin, so the first sweep separates them
    ["layout", "grid:3,3", "--alg", "sgd", "--init", "pivot", "--pivots", "1"],
    ["bench", "path:6", "cycle:5", "--inits", "random,cmds,pivot", "--reps", "1"],
    ["hybrid", "grid:2,3", "--ks", "0,1", "--reps", "1"],
    ["info", "path:4"],
]


def package_functions() -> dict:
    """Code object -> "module.name" of every module-level function of the package."""
    functions = {}
    for path in sorted(Path(stresslayout.__file__).parent.glob("*.py")):
        if path.stem.startswith("__"):
            continue
        module = importlib.import_module(f"stresslayout.{path.stem}")
        for name, value in vars(module).items():
            if inspect.isfunction(value) and value.__module__ == module.__name__:
                functions[value.__code__] = f"{path.stem}.{name}"
    return functions


def entered_code(jobs) -> set:
    """Code objects of every function called while cli.main runs each job
    in the working directory, which receives the outputs."""
    entered = set()

    def trace(frame, event, arg):
        entered.add(frame.f_code)

    previous = sys.gettrace()
    sys.settrace(trace)
    try:
        for argv in jobs:
            assert cli.main(argv) == 0, argv
    finally:
        sys.settrace(previous)
    return entered


def test_every_package_function_is_reached(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "g.edges").write_text("0 1\n1 2\n2 3\n3 0\n0 2\n")
    (tmp_path / "p3.mtx").write_text(P3_MTX)
    functions = package_functions()
    assert UNREACHED <= set(functions.values())
    entered = entered_code(JOBS)
    unreached = sorted(name for code, name in functions.items() if code not in entered)
    assert unreached == sorted(UNREACHED), (
        "every package function must run in some job; move test-only code to tests/helpers.py")
