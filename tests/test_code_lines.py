import importlib.util
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "code_lines.py"

spec = importlib.util.spec_from_file_location("code_lines", SCRIPT)
code_lines = importlib.util.module_from_spec(spec)
spec.loader.exec_module(code_lines)

SOURCE = '''"""Module docstring,
over two lines."""

# a comment line
import os  # a code line with a comment


class Thing:
    """Class docstring."""

    size = 3


def f(x):
    """Function docstring.

    Its body.
    """
    text = """not a
docstring"""
    return (x +
            1)
'''


def test_counts_code_lines_only():
    # import, class, size, def, text (2 lines), return (2 lines)
    assert code_lines.code_lines(SOURCE) == 8


def test_prints_each_module_and_total(tmp_path):
    (tmp_path / "a.py").write_text(SOURCE)
    (tmp_path / "b.py").write_text("x = 1\n\n# done\n")
    done = subprocess.run(
        [sys.executable, str(SCRIPT), str(tmp_path / "a.py"), str(tmp_path / "b.py")],
        capture_output=True, text=True, timeout=60, check=True,
    )
    assert done.stdout.splitlines() == ["a.py\t8", "b.py\t1", "total\t9"]
