import subprocess
import sys
from pathlib import Path

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
    assert lines[:2] == ["| Layer | n = 9 (`grid:3,3`) |", "|---|---|"]
    assert [line.split(" | ")[0].removeprefix("| ") for line in lines[2:]] == LAYERS
    for line in lines[2:]:
        assert line.endswith(" ms |") or line.endswith(" s |")


def test_rejects_zero_repeats():
    done = subprocess.run(
        [sys.executable, str(SCRIPT), "--graphs", "grid:3,3", "--repeats", "0"],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 2 and "--repeats must be positive" in done.stderr
