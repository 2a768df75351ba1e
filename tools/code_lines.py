#!/usr/bin/env python3
"""Count code lines: the size number ROADMAP's ``src/`` target refers to.

The rule, written down once: a *code line* is a line of ``src/**/*.py``
holding at least one token that is neither a comment nor part of a
docstring.  Blank lines, comment-only lines and docstrings (the leading
string statement of a module, class or function) do not count; a string
that is data does, on every line it spans.

    python tools/code_lines.py              # total for src/
    python tools/code_lines.py -v           # per file, largest first
    python tools/code_lines.py src/repro/cluster.py
"""

from __future__ import annotations

import argparse
import ast
import io
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Tokens that carry no code of their own.
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree: ast.AST) -> set[int]:
    """Line numbers covered by module, class and function docstrings."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                 ast.AsyncFunctionDef)):
            continue
        first = node.body[0] if node.body else None
        if (isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)):
            lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """Number of code lines in one file's source text."""
    skipped = docstring_lines(ast.parse(source))
    counted: set[int] = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type in _LAYOUT:
            continue
        counted.update(range(token.start[0], token.end[0] + 1))
    return len(counted - skipped)


def count_files(paths) -> dict[Path, int]:
    """``{file: code lines}`` for every ``*.py`` at or under ``paths``."""
    files = sorted({file for path in paths
                    for file in ([path] if path.is_file()
                                 else path.rglob("*.py"))})
    return {file: code_lines(file.read_text()) for file in files}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("paths", nargs="*", type=Path,
                        default=[ROOT / "src"],
                        help="files or directories (default: src/)")
    parser.add_argument("-v", "--verbose", action="store_true",
                        help="also print every file's count")
    args = parser.parse_args()
    counts = count_files(args.paths)
    if args.verbose:
        for file, count in sorted(counts.items(),
                                  key=lambda item: (-item[1], item[0])):
            print(f"{count:7d}  {file}")
    print(f"{sum(counts.values())} code lines in {len(counts)} files")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
