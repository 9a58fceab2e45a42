"""The line counter bench/sloc.py, on a synthetic module."""

import importlib.util
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("sloc", ROOT / "bench" / "sloc.py")
sloc = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(sloc)

SOURCE = '''"""Module docstring,
over two lines."""

# a comment line
import math  # a trailing comment


class Thing:
    """Class docstring."""

    def method(self, x):
        """Function docstring,

        with a blank line inside."""
        # a comment inside
        text = """a string that is
not a docstring"""
        return math.gcd(x,
                        len(text))


async def nothing():
    """Docstring of an async function."""
    "a second string is an expression, not a docstring"

x = (1 +
     2)
'''


def test_counts_code_lines_only():
    # import, class, def, text (2 lines), return (2 lines), async def, the
    # second string, x (2 lines)
    assert sloc.sloc(SOURCE) == 11


def test_docstring_lines():
    assert sloc.docstring_lines(SOURCE) == {1, 2, 9, 12, 13, 14, 23}


def test_script_prints_modules_and_total(tmp_path):
    (tmp_path / "a.py").write_text(SOURCE)
    (tmp_path / "b.py").write_text('"""Only a docstring."""\n\nY = 1\n')
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "sloc.py"), str(tmp_path)],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n") == ["    11  a.py", "     1  b.py", "    12  total", ""]
