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
