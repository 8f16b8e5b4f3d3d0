"""Print the code lines of each ``src/bhmc`` module and their total.

    python3 tools/codelines.py [--defs] [--against REV] [FILE ...]

A code line is a line of source that is neither blank, nor a comment
alone, nor part of a docstring: the first statement of a module, class or
function, when it is a string literal, counts not at all.  Docstrings are
found with ``ast``, so a string that is no docstring counts as code.
Without arguments the modules of ``src/bhmc`` beside this script's
directory are counted; given files are counted instead.  With ``--defs``,
each module's line is preceded by one line per top-level function or
class, ``MODULE:NAME``, with the code lines from its first decorator to
its last line, so a definition can be sized before it is edited.

With ``--against REV`` each line reads ``AT_REV  HERE  DIFF  NAME``: the
count of the file as committed at the git revision ``REV``
(``git show REV:PATH``), its count in the working tree, and the
difference; a file missing on either side counts 0 there.  Without
arguments the modules of ``src/bhmc`` at ``REV`` are counted too, so a
module that was removed or added shows in the totals.
"""

from __future__ import annotations

import argparse
import ast
import subprocess
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


def compare(old: str, new: str, name: str, defs: bool = False) -> list[tuple[int, int, str]]:
    """``(code lines in old, code lines in new, label)`` for one file, ``""`` where it is missing.

    With ``defs`` the rows of its top-level definitions come first, matched
    by name, those of ``new`` in order and then those only ``old`` has.
    """
    rows = []
    if defs:
        before, after = dict(definition_lines(old)), dict(definition_lines(new))
        for d in [*after, *(d for d in before if d not in after)]:
            rows.append((before.get(d, 0), after.get(d, 0), f"{name}:{d}"))
    return rows + [(code_lines(old), code_lines(new), name)]


def _git(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True, text=True)


def _at(rev: str, path: Path) -> str:
    """``path`` as committed at ``rev``, or ``""`` where it is missing there."""
    shown = _git("show", f"{rev}:{path.resolve().relative_to(ROOT).as_posix()}")
    return shown.stdout if shown.returncode == 0 else ""


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


def main_against(rev: str, paths: list[Path], defs: bool = False) -> None:
    files = []
    for path in paths:
        rows = compare(_at(rev, path), path.read_text() if path.exists() else "", path.name, defs)
        for a, b, label in rows:
            print(f"{a:6d}  {b:6d}  {b - a:+6d}  {label}")
        files.append(rows[-1])  # the file's own row
    a, b = sum(row[0] for row in files), sum(row[1] for row in files)
    print(f"{a:6d}  {b:6d}  {b - a:+6d}  total")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="Count the code lines of Python files.")
    parser.add_argument("--defs", action="store_true", help="size each top-level definition too")
    parser.add_argument("--against", metavar="REV", help="also count each file at git revision REV")
    parser.add_argument("files", nargs="*", type=Path, help="default: the modules of src/bhmc")
    args = parser.parse_args()
    modules = set((ROOT / "src" / "bhmc").glob("*.py"))
    if args.against is None:
        main(args.files or sorted(modules), args.defs)
    elif _git("rev-parse", "--verify", "--quiet", f"{args.against}^{{commit}}").returncode:
        parser.error(f"--against: {args.against!r} names no commit")
    else:
        listed = _git("ls-tree", "--name-only", args.against, "src/bhmc/").stdout.split()
        modules |= {ROOT / p for p in listed if p.endswith(".py")}
        main_against(args.against, args.files or sorted(modules), args.defs)
