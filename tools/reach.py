#!/usr/bin/env python3
"""List the definitions in ``src/repro`` that no entry point reaches.

The rule, written down once: reach is a closure over the words code
names, started from the program's entry points.  The words of a piece of
code are read from its syntax tree: names, attributes, keywords,
arguments, imported names and the identifier-shaped words of every string
that is not a docstring.  Comments and docstrings are prose, and reach
nothing.  The roots are the words of the ``*.py`` files of
``benchmarks/``, ``examples/`` and ``tools/`` and of
``src/repro/__main__.py``.  Then, until nothing changes:

- a top-level function or class is reached when its name is a reached
  word;
- a method (or nested class) is reached when its class is reached and
  its name is a reached word; dunders are reached with their class, or
  with their module when they are top-level;
- a reached definition adds the words of its code, decorators included
  (a class adds its own statements, not its members');
- the first reached definition of a module adds the words of the
  module's other top-level statements.  Import statements and
  ``__init__.py`` files add nothing, so a re-export reaches nothing, and
  neither does a definition naming itself.

Every definition left over is listed, except dunders and the members of
a class that is itself listed.  Each row gives the definition's code
lines as ``tools/code_lines.py`` counts them.

    python tools/reach.py

``tests/test_reach.py`` fails when this list differs from its table of
definitions kept with a reason.
"""

from __future__ import annotations

import ast
import re
import textwrap
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

try:
    from tools.code_lines import ROOT, code_lines
except ImportError:     # run as a script: tools/ itself is on sys.path
    from code_lines import ROOT, code_lines

#: Directories whose code reaches ``src/`` from outside it.
CALLERS = ("benchmarks", "examples", "tools")
_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
_IMPORTS = (ast.Import, ast.ImportFrom)


@dataclass(eq=False)
class Definition:
    module: str                     # file under the package, posix
    name: str
    owner: Optional["Definition"]   # the class a member is defined in
    words: set[str]
    span: range                     # its lines, decorators included

    @property
    def dunder(self) -> bool:
        return self.name.startswith("__") and self.name.endswith("__")


def _identifiers(text: str) -> set[str]:
    return set(re.findall(r"[A-Za-z_]\w*", text))


def _docstring(node: ast.AST) -> Optional[ast.stmt]:
    """The leading string statement of a module, class or function."""
    if not isinstance(node, (ast.Module, *_DEFS)) or not node.body:
        return None
    first = node.body[0]
    if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
            and isinstance(first.value.value, str)):
        return first
    return None


def words(nodes, skip=()) -> set[str]:
    """The words the code of ``nodes`` names, leaving out the subtrees
    in ``skip`` and every docstring."""
    found: set[str] = set()
    stack = list(nodes)
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, (ast.arg, ast.keyword)) and node.arg:
            found.add(node.arg)
        elif isinstance(node, ast.alias):
            found |= _identifiers(f"{node.name} {node.asname or ''}")
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            found |= _identifiers(node.value)
        prose = _docstring(node)
        stack.extend(child for child in ast.iter_child_nodes(node)
                     if child is not prose and child not in skip)
    return found


def _span(node: ast.stmt) -> range:
    """Line numbers of ``node``, its decorators included."""
    first = min([node.lineno] + [d.lineno for d in
                                 getattr(node, "decorator_list", ())])
    return range(first, node.end_lineno + 1)


def parse(module: str, source: str):
    """``(definitions, top-level words)`` of one module's source."""
    tree = ast.parse(source)
    found: list[Definition] = []

    def define(node, owner):
        members = ([child for child in node.body if isinstance(child, _DEFS)]
                   if isinstance(node, ast.ClassDef) else [])
        definition = Definition(module, node.name, owner,
                                words([node], skip=members), _span(node))
        found.append(definition)
        for member in members:
            define(member, definition)

    top, prose = [], _docstring(tree)
    for node in tree.body:
        if isinstance(node, _DEFS):
            define(node, None)
        elif not isinstance(node, _IMPORTS) and node is not prose:
            top.append(node)
    if module.endswith("__init__.py"):
        top = []
    return found, words(top)


def unreached(root: Path = ROOT) -> list[tuple[str, str, int]]:
    """``(file under src/repro, name, code lines)``, sorted."""
    package = root / "src" / "repro"
    callers = [package / "__main__.py", *(
        file for folder in CALLERS for file in (root / folder).rglob("*.py"))]
    roots = words([ast.parse(file.read_text()) for file in callers])
    definitions: list[Definition] = []
    top_words: dict[str, set[str]] = {}
    sources: dict[str, list[str]] = {}
    for file in sorted(package.rglob("*.py")):
        module = file.relative_to(package).as_posix()
        source = file.read_text()
        sources[module] = source.splitlines(keepends=True)
        found, top_words[module] = parse(module, source)
        definitions += found

    reached_words, reached, modules = set(roots), set(), set()
    grew = True
    while grew:
        grew = False
        for definition in definitions:
            if definition in reached:
                continue
            owner = definition.owner
            named = definition.name in reached_words
            if owner is None:
                ready = (named or definition.dunder
                         and definition.module in modules)
            else:
                ready = owner in reached and (named or definition.dunder)
            if not ready:
                continue
            reached.add(definition)
            reached_words |= definition.words
            if definition.module not in modules:
                modules.add(definition.module)
                reached_words |= top_words[definition.module]
            grew = True
    return sorted(
        (definition.module, definition.name, code_lines(textwrap.dedent(
            "".join(sources[definition.module][number - 1]
                    for number in definition.span))))
        for definition in definitions
        if definition not in reached and not definition.dunder
        and (definition.owner is None or definition.owner in reached))


def main() -> int:
    rows = unreached()
    for file, name, count in rows:
        print(f"{count:5d}  {file}  {name}")
    print(f"{len(rows)} unreached definitions, "
          f"{sum(count for _, _, count in rows)} code lines")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
