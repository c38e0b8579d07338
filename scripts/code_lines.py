#!/usr/bin/env python3
"""Print the code lines of each module under src/stresslayout, and their total.

A code line holds at least one token that is not a comment and not part
of a docstring (the string that opens a module, class or function body).
Blank lines, comment lines and docstring lines do not count; a line of
code with a trailing comment does.

    python3 scripts/code_lines.py
    python3 scripts/code_lines.py path/to/module.py ...

Only the standard library is used.
"""

import argparse
import ast
import io
import sys
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "stresslayout"
SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}
BODIES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(tree) -> set[int]:
    """Line numbers covered by the docstrings of tree's module, classes and functions."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, BODIES) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """Number of lines of source with a token outside comments and docstrings."""
    docstrings = docstring_lines(ast.parse(source))
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in SKIPPED:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstrings)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("files", nargs="*", type=Path,
                        help="modules to count (default: every module of the package)")
    args = parser.parse_args(argv)
    files = args.files or sorted(PACKAGE.glob("*.py"))
    total = 0
    for path in files:
        count = code_lines(path.read_text())
        total += count
        print(f"{path.name}\t{count}")
    print(f"total\t{total}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
