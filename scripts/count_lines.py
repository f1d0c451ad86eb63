"""Print the lines and the code lines of each module under src/.

Code lines leave out blank lines, comment-only lines (found with `tokenize`)
and the lines of docstrings (found with `ast`). A line that holds code and a
trailing comment counts as code. This is a report, not a gate.

    python scripts/count_lines.py [SRC_DIR]
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
             tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree: ast.AST) -> set[int]:
    """The line numbers of every module, class and function docstring."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(source: str) -> tuple[int, int]:
    """(lines, code lines) of one module's source."""
    code: set[int] = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _NOT_CODE:
            code.update(range(token.start[0], token.end[0] + 1))
    return len(source.splitlines()), len(code - docstring_lines(ast.parse(source)))


def main(argv: list[str]) -> int:
    root = Path(argv[0]) if argv else Path(__file__).resolve().parents[1] / "src"
    totals = [0, 0]
    print(f"{'module':<40} {'lines':>6} {'code':>6}")
    for path in sorted(root.rglob("*.py")):
        lines, code = count(path.read_text())
        totals[0] += lines
        totals[1] += code
        print(f"{str(path.relative_to(root)):<40} {lines:>6} {code:>6}")
    print(f"{'total':<40} {totals[0]:>6} {totals[1]:>6}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
