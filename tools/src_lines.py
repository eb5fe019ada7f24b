"""Print the lines and the code lines of each Python file, and their totals.

    python tools/src_lines.py [PATH ...]

A PATH is a file or a directory, whose ``*.py`` files are read in name
order; the default is ``src/dsmedian``.  ``lines`` is what ``wc -l``
counts.  ``code`` counts the lines that hold code: a line with a token
other than a comment is code unless the token is part of a docstring
(the string that opens a module, class or function body, found with
``ast``), so docstrings, comments and blank lines are not code.  A change
that is meant to simplify is judged by its code lines: a docstring that
grows or shrinks does not change them.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
             tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.AST) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(source: str) -> tuple[int, int]:
    """(lines, code lines) of one file's source."""
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return source.count("\n"), len(code - _docstring_lines(ast.parse(source)))


def main(argv: list[str]) -> int:
    files = []
    for path in map(Path, argv or ["src/dsmedian"]):
        files += sorted(path.glob("*.py")) if path.is_dir() else [path]
    total = [0, 0]
    print(f"{'lines':>7} {'code':>7}  file")
    for path in files:
        counts = count(path.read_text())
        total = [t + c for t, c in zip(total, counts)]
        print(f"{counts[0]:7d} {counts[1]:7d}  {path}")
    print(f"{total[0]:7d} {total[1]:7d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
