"""The scripts under ``tools``: the code-line count."""

import subprocess
import sys
from pathlib import Path

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
