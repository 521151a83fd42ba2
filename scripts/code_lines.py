"""Count the code lines of Python files.

Usage:

    python3 scripts/code_lines.py FILE...

prints one line per file, ``<count> <file>``, and a total when there is
more than one file.  A code line is a line that is not blank, holds no
more than a comment, and is not part of a docstring (the string that
opens a module, class or function body).  The lines inside any other
multi-line string are code lines, blank ones excepted.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path
from typing import List, Set

# tokens that make no line a code line by themselves
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.AST) -> Set[int]:
    """The line numbers of every docstring in the tree."""
    lines: Set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines of the Python source text."""
    text = source.splitlines()
    lines: Set[int] = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _LAYOUT:
            lines.update(range(token.start[0], token.end[0] + 1))
    lines -= _docstring_lines(ast.parse(source))
    return sum(1 for n in lines if text[n - 1].strip())


def main(argv: List[str]) -> int:
    if not argv:
        print("usage: code_lines.py FILE...", file=sys.stderr)
        return 2
    total = 0
    for name in argv:
        count = code_lines(Path(name).read_text(encoding="utf-8"))
        total += count
        print("%d %s" % (count, name))
    if len(argv) > 1:
        print("%d total" % total)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
