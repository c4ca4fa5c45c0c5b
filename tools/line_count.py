"""Raw and code line counts of the Python modules under the given directories.

A code line is a line that holds any token other than a comment, a blank
line or a docstring (a string that is the first statement of a module,
class or function body).  One row per module, then the totals.

    python tools/line_count.py src/qviterbi
"""
from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(source: str) -> set[int]:
    """The line numbers that a module, class or function docstring spans."""
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) \
                and ast.get_docstring(node, clean=False) is not None:
            lines.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    return lines


def count(path: Path) -> tuple[int, int]:
    """(raw lines, code lines) of one module."""
    source = path.read_text()
    docs = docstring_lines(source)
    code = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in SKIPPED:
            code.update(n for n in range(token.start[0], token.end[0] + 1) if n not in docs)
    return len(source.splitlines()), len(code)


def main(directories: list[str]) -> int:
    total_raw = total_code = 0
    print(f"{'module':<40} {'raw':>6} {'code':>6}")
    for directory in directories:
        for path in sorted(Path(directory).rglob("*.py")):
            raw, code = count(path)
            total_raw, total_code = total_raw + raw, total_code + code
            print(f"{str(path):<40} {raw:>6} {code:>6}")
    print(f"{'total':<40} {total_raw:>6} {total_code:>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
