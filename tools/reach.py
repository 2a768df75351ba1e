#!/usr/bin/env python3
"""List the definitions in ``src/repro`` that nothing outside ``tests/`` reaches.

The rule, written down once: a function or class defined in
``src/repro`` is *unreached* when its name occurs as a word exactly once
in ``src/`` (its own ``def`` or ``class`` line) and not at all in the
``*.py`` files of ``benchmarks/``, ``examples/`` or ``tools/``.  Any
occurrence counts, a docstring or comment included, so the rule errs
towards calling a name reached; dunder methods, which the interpreter
calls by name, are never listed.  Each row gives the definition's code
lines as ``tools/code_lines.py`` counts them.

    python tools/reach.py

``tests/test_reach.py`` fails when this list differs from its table of
definitions kept with a reason.
"""

from __future__ import annotations

import ast
import re
import textwrap
from collections import Counter
from pathlib import Path

try:
    from tools.code_lines import ROOT, code_lines
except ImportError:     # run as a script: tools/ itself is on sys.path
    from code_lines import ROOT, code_lines

PACKAGE = ROOT / "src" / "repro"
#: Directories whose code reaches ``src/`` from outside it.
CALLERS = ("benchmarks", "examples", "tools")


def words(files) -> Counter:
    """How often each identifier-shaped word occurs in ``files``."""
    counts: Counter = Counter()
    for file in files:
        counts.update(re.findall(r"[A-Za-z_]\w*", file.read_text()))
    return counts


def definitions(file: Path):
    """``(name, code lines)`` of every function and class in ``file``."""
    source = file.read_text()
    lines = source.splitlines(keepends=True)
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
            continue
        if node.name.startswith("__") and node.name.endswith("__"):
            continue
        first = min([node.lineno]
                    + [decorator.lineno for decorator in node.decorator_list])
        body = textwrap.dedent("".join(lines[first - 1:node.end_lineno]))
        yield node.name, code_lines(body)


def unreached() -> list[tuple[str, str, int]]:
    """``(file under src/repro, name, code lines)``, sorted."""
    files = sorted(PACKAGE.rglob("*.py"))
    in_src = words(files)
    outside = words(file for folder in CALLERS
                    for file in (ROOT / folder).rglob("*.py"))
    return sorted((file.relative_to(PACKAGE).as_posix(), name, count)
                  for file in files
                  for name, count in definitions(file)
                  if in_src[name] == 1 and not outside[name])


def main() -> int:
    rows = unreached()
    for file, name, count in rows:
        print(f"{count:5d}  {file}  {name}")
    print(f"{len(rows)} unreached definitions, "
          f"{sum(count for _, _, count in rows)} code lines")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
