import importlib.util
import subprocess
import sys
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
