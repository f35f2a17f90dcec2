"""Print the size of the package source in two counts.

Usage::

    python tools/count_lines.py [DIR]

DIR defaults to ``src/oamcycle``.  The first count is what ``cat DIR/*.py |
wc -l`` prints.  The second counts code lines: the lines that hold a token
other than a comment or a docstring, so blank lines, comment lines and the
lines of a module, class or function docstring are left out.  A token that
spans lines, such as a multi-line string, counts on each line it spans.
"""

from __future__ import annotations

import ast
import sys
import tokenize
from pathlib import Path

#: tokens that hold no code
_NOT_CODE = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
    tokenize.ENDMARKER, tokenize.ENCODING,
}


def _docstring_starts(tree: ast.Module) -> set[tuple[int, int]]:
    """The ``(line, column)`` where each docstring of *tree* starts."""
    starts = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                starts.add((first.lineno, first.col_offset))
    return starts


def code_lines(path: Path) -> int:
    """The number of lines of *path* that hold code."""
    docstrings = _docstring_starts(ast.parse(path.read_text(encoding="utf-8"), str(path)))
    lines: set[int] = set()
    with path.open("rb") as source:
        for token in tokenize.tokenize(source.readline):
            if token.type in _NOT_CODE or token.start in docstrings:
                continue
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines)


def main(argv: list[str]) -> int:
    directory = Path(argv[0]) if argv else Path("src/oamcycle")
    paths = sorted(directory.glob("*.py"))
    total = sum(path.read_bytes().count(b"\n") for path in paths)
    print(f"wc -l: {total}")
    print(f"code lines: {sum(map(code_lines, paths))}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
