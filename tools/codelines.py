"""Print the code lines of each ``src/bhmc`` module and their total.

    python3 tools/codelines.py [FILE ...]

A code line is a line of source that is neither blank, nor a comment
alone, nor part of a docstring: the first statement of a module, class or
function, when it is a string literal, counts not at all.  Docstrings are
found with ``ast``, so a string that is no docstring counts as code.
Without arguments the modules of ``src/bhmc`` beside this script's
directory are counted; given files are counted instead.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def code_lines(source: str) -> int:
    """The number of code lines in ``source``."""
    skip = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, SCOPES) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                skip.update(range(first.lineno, first.end_lineno + 1))
    return sum(
        1
        for i, line in enumerate(source.splitlines(), start=1)
        if i not in skip and line.strip() and not line.lstrip().startswith("#")
    )


def main(paths: list[Path]) -> None:
    total = 0
    for path in paths:
        n = code_lines(path.read_text())
        total += n
        print(f"{n:6d}  {path.name}")
    print(f"{total:6d}  total")


if __name__ == "__main__":
    main([Path(a) for a in sys.argv[1:]] or sorted((ROOT / "src" / "bhmc").glob("*.py")))
