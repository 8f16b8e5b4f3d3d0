"""Print the code lines of each ``src/bhmc`` module and their total.

    python3 tools/codelines.py [--defs] [FILE ...]

A code line is a line of source that is neither blank, nor a comment
alone, nor part of a docstring: the first statement of a module, class or
function, when it is a string literal, counts not at all.  Docstrings are
found with ``ast``, so a string that is no docstring counts as code.
Without arguments the modules of ``src/bhmc`` beside this script's
directory are counted; given files are counted instead.  With ``--defs``,
each module's line is preceded by one line per top-level function or
class, ``MODULE:NAME``, with the code lines from its first decorator to
its last line, so a definition can be sized before it is edited.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def _code_line_numbers(source: str, tree: ast.Module) -> set[int]:
    skip = set()
    for node in ast.walk(tree):
        if isinstance(node, SCOPES) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                skip.update(range(first.lineno, first.end_lineno + 1))
    return {
        i
        for i, line in enumerate(source.splitlines(), start=1)
        if i not in skip and line.strip() and not line.lstrip().startswith("#")
    }


def code_lines(source: str) -> int:
    """The number of code lines in ``source``."""
    return len(_code_line_numbers(source, ast.parse(source)))


def definition_lines(source: str) -> list[tuple[str, int]]:
    """The name and code lines of each top-level function or class of ``source``, in order."""
    tree = ast.parse(source)
    lines = _code_line_numbers(source, tree)
    out = []
    for node in tree.body:
        if isinstance(node, SCOPES[1:]):
            first = min([node.lineno] + [d.lineno for d in node.decorator_list])
            out.append((node.name, sum(first <= i <= node.end_lineno for i in lines)))
    return out


def main(paths: list[Path], defs: bool = False) -> None:
    total = 0
    for path in paths:
        source = path.read_text()
        for name, n in definition_lines(source) if defs else ():
            print(f"{n:6d}  {path.name}:{name}")
        n = code_lines(source)
        total += n
        print(f"{n:6d}  {path.name}")
    print(f"{total:6d}  total")


if __name__ == "__main__":
    args = sys.argv[1:]
    defs = "--defs" in args
    files = [Path(a) for a in args if a != "--defs"]
    main(files or sorted((ROOT / "src" / "bhmc").glob("*.py")), defs)
