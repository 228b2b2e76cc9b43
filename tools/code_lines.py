"""Count the code lines of Python files: lines that hold a token of code,
not counting docstrings, comments or blank lines.

    python3 tools/code_lines.py src/fza/*.py

Prints one `lines  path` row per file and a `total` row. With no FILE it
prints a usage line to stderr and exits 2; at a FILE it cannot read or
tokenize it prints one `error: <path>: <reason>` line to stderr and exits
2. A docstring is the string constant that opens a module, class or
function body (`ast`); a line counts when it holds any token other than a
comment or such a docstring (`tokenize`). A multi-line token other than a
docstring counts every line it spans.

Standard library only.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

SKIPPED = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENDMARKER,
}


def docstring_starts(source: str) -> set[tuple[int, int]]:
    """The (line, column) where each docstring's string token starts."""
    starts = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) and isinstance(first.value.value, str):
                starts.add((first.lineno, first.col_offset))
    return starts


def code_lines(source: str) -> int:
    """The number of lines of `source` that hold code."""
    docstrings = docstring_starts(source)
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in SKIPPED or (tok.type == tokenize.STRING and tok.start in docstrings):
            continue
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def main(paths: list[str]) -> int:
    if not paths:
        print("usage: code_lines.py FILE [FILE ...]", file=sys.stderr)
        return 2
    total = 0
    for path in paths:
        try:
            count = code_lines(Path(path).read_text(encoding="utf-8"))
        except (OSError, UnicodeDecodeError, SyntaxError, tokenize.TokenError) as exc:
            print(f"error: {path}: {exc}", file=sys.stderr)
            return 2
        total += count
        print(f"{count:6d}  {path}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
