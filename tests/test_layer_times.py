import importlib.util
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "layer_times.py"

LAYERS = [
    "Load (`generate` + components)",
    "BFS all-pairs distances",
    "`classical_mds`",
    "`pivot_mds` (k = 100)",
    "`run_sgd`, 15 iterations, with its 16 `stress()` calls",
    "One SMACOF sweep (`smacof_iteration`)",
    "One `stress()` call",
]


def test_prints_one_row_per_layer():
    done = subprocess.run(
        [sys.executable, str(SCRIPT), "--graphs", "grid:3,3", "--repeats", "1"],
        capture_output=True, text=True, timeout=120, check=True,
    )
    lines = done.stdout.splitlines()
    times, peaks = lines[:9], lines[10:]
    assert lines[9] == ""
    assert times[:2] == ["| Layer | n = 9 (`grid:3,3`) |", "|---|---|"]
    assert peaks[:2] == ["| Layer (peak traced memory) | n = 9 (`grid:3,3`) |", "|---|---|"]
    for table, units in ((times, (" ms |", " s |")), (peaks, (" KiB |", " MiB |"))):
        assert [line.split(" | ")[0].removeprefix("| ") for line in table[2:]] == LAYERS
        for line in table[2:]:
            assert line.endswith(units)


def test_peak_memory_table_reads_each_call():
    # a layer that allocates 3 MiB at its peak reads 3 MiB, whatever was allocated before
    spec = importlib.util.spec_from_file_location("layer_times", SCRIPT)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    held = np.ones(2**20)  # allocated before the call: not counted
    assert script.show_bytes(script.peak_traced_bytes(lambda: np.ones(3 * 2**17))) == "3 MiB"
    assert script.show_bytes(1536) == "1.5 KiB"
    del held


def test_rejects_zero_repeats():
    done = subprocess.run(
        [sys.executable, str(SCRIPT), "--graphs", "grid:3,3", "--repeats", "0"],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 2 and "--repeats must be positive" in done.stderr


def test_pins_blas_threads_before_numpy_loads():
    # a finder ahead of the others sees numpy's first import and records the variables then
    names = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    probe = textwrap.dedent(f"""
        import importlib.util, json, os, sys
        seen = []
        class Probe:
            def find_spec(self, name, path=None, target=None):
                if name == "numpy" and not seen:
                    seen.append({{var: os.environ.get(var) for var in {names!r}}})
        sys.meta_path.insert(0, Probe())
        spec = importlib.util.spec_from_file_location("layer_times", {str(SCRIPT)!r})
        spec.loader.exec_module(importlib.util.module_from_spec(spec))
        print(json.dumps(seen))
    """)
    env = {key: value for key, value in os.environ.items() if key not in names}
    done = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    assert json.loads(done.stdout) == [dict.fromkeys(names, "1")]
