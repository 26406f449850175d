"""Count the code lines of each module in src/lifelens.

A code line is a physical line that holds a token of code: comments,
blank lines and docstrings (the first statement of a module, class or
function, when it is a string literal) do not count. A statement or
string that spans several lines counts each line it covers. Uses only
the standard library:

    python tools/code_lines.py
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "lifelens"
_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree: ast.Module) -> set[int]:
    """The line numbers that docstrings cover."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """How many lines of `source` hold code."""
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _NOT_CODE:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source)))


def main() -> int:
    total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{path.name:<14} {count:>5}")
    print(f"{'total':<14} {total:>5}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
