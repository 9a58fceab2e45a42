"""Count the lines of code in src/gcartan, per module and in total.

    python3 bench/sloc.py [SRC_DIR]

A line counts when it holds a token other than a comment, a newline or an
indentation token, and lies outside the docstring of a module, a class or a
function (found with `ast`).  So blank lines, comment lines and docstrings do
not count; a string that is not a docstring does, on every line it spans, and
so does each line of a statement continued over several lines.  SRC_DIR
defaults to the `src/gcartan` next to this script.
"""

from __future__ import annotations

import ast
import sys
import tokenize
from pathlib import Path

SKIP = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER,
}
DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(source: str) -> set[int]:
    """The line numbers of every module, class and function docstring."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, DOCUMENTED) and ast.get_docstring(node, clean=False) is not None:
            doc = node.body[0]
            out.update(range(doc.lineno, doc.end_lineno + 1))
    return out


def sloc(source: str) -> int:
    lines = set()
    readline = iter(source.splitlines(keepends=True)).__next__
    for tok in tokenize.generate_tokens(readline):
        if tok.type not in SKIP:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(source))


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    src = Path(args[0]) if args else Path(__file__).resolve().parents[1] / "src" / "gcartan"
    total = 0
    for path in sorted(src.glob("*.py")):
        n = sloc(path.read_text())
        total += n
        print(f"{n:6d}  {path.name}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
