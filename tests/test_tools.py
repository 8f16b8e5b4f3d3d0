"""The scripts under ``tools``: the code-line count and the output digests."""

import importlib.util
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

from bhmc import SolverOptions, make_mm1, solve_mip

TOOLS = Path(__file__).resolve().parents[1] / "tools"

SOURCE = '''"""Module docstring,
over two lines."""

import os  # a trailing comment keeps its line


class A:
    """Class docstring."""

    # a comment alone
    x = """a string that is no docstring
    counts as code"""

    def f(self):
        """Function docstring."""
        return os.sep
'''


def test_codelines_counts_code_but_no_docstring_comment_or_blank(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text(SOURCE)
    out = subprocess.run(
        [sys.executable, str(TOOLS / "codelines.py"), str(path)],
        capture_output=True,
        text=True,
        check=True,
    )
    # import, class, the two lines of x, def and return
    assert [line.split()[0] for line in out.stdout.splitlines()] == ["6", "6"]
    assert out.stdout.splitlines()[-1].split()[1] == "total"


def test_solve_digest_hashes_the_answer_apart_from_the_trace(monkeypatch):
    monkeypatch.setattr(sys, "path", sys.path[:])  # the script puts src and bench first
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(name, "1")
    spec = importlib.util.spec_from_file_location("digests", TOOLS / "digests.py")
    digests = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(digests)

    def fields(approx):
        return dict(field.split("=") for field in digests.solve_digest(approx).split())

    approx = solve_mip(make_mm1(1.0, 2.0), SolverOptions(epsilon=1e-8))
    base = fields(approx)
    assert sorted(base) == ["answer", "trace"] and fields(approx) == base
    retraced = fields(replace(approx, pivot_trace=approx.pivot_trace[:-1]))
    assert retraced["answer"] == base["answer"] and retraced["trace"] != base["trace"]
    moved = fields(replace(approx, blocks=(approx.blocks[0] * (1 + 2**-52), *approx.blocks[1:])))
    assert moved["answer"] != base["answer"] and moved["trace"] == base["trace"]
