#!/usr/bin/env python3
"""Render the cache line protocol tables as the markdown block of
``docs/caching.md``.

``repro.cache.protocol`` holds the protocol as data; the *Protocol*
section of the doc is this rendering of it, between two marker comments,
and ``tests/cache/test_protocol_table.py`` fails when they differ.

    python tools/cache_protocol_doc.py            # print the block
    python tools/cache_protocol_doc.py --write    # rewrite it in the doc
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from repro.cache import protocol  # noqa: E402

DOC = ROOT / "docs" / "caching.md"
BEGIN = "<!-- protocol tables: generated by tools/cache_protocol_doc.py -->"
END = "<!-- end of protocol tables -->"

STATES = (protocol.ABSENT, protocol.FILLING, protocol.SHARED,
          protocol.MODIFIED)


def line_cell(row) -> str:
    if row is None:
        return "✗"
    steps = [text for flag, text in (
        (row.poison, "poison"), (row.wait, "wait for the fill"),
        (row.flush, "flush"), (row.next, f"→ {row.next}"),
        (row.drop, "drop notice")) if flag]
    return (", ".join(steps) or "—") + (f" `{row.count}`" if row.count else "")


def dir_cell(row) -> str:
    if row is None:
        return "✗"
    steps = [f"{row.send} → {row.to}"] if row.send else []
    steps += list(row.edits)
    if row.local:
        steps.append("answer `owner_local`")
    return (", ".join(steps) or "—") + (f" `{row.count}`" if row.count else "")


def grid(corner: str, columns, table: dict, cell) -> list[str]:
    names = list(dict.fromkeys(name for _, name in table))
    lines = [f"| {corner} | " + " | ".join(columns) + " |",
             "|---" * (len(columns) + 1) + "|"]
    for name in names:
        cells = (cell(table.get((column, name))) for column in columns)
        lines.append(f"| `{name}` | " + " | ".join(cells) + " |")
    return lines


def render() -> str:
    lines = [BEGIN, ""]
    lines += grid("event \\ line is", STATES, protocol.LINE_TABLE, line_cell)
    lines += [""]
    lines += grid("op \\ held by", protocol.HOLDERS, protocol.DIR_TABLE,
                  dir_cell)
    lines += ["", END]
    return "\n".join(lines)


def documented() -> str:
    """The block as ``docs/caching.md`` has it."""
    text = DOC.read_text()
    return text[text.index(BEGIN):text.index(END) + len(END)]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", action="store_true",
                        help="replace the block in docs/caching.md")
    args = parser.parse_args()
    if args.write:
        DOC.write_text(DOC.read_text().replace(documented(), render()))
    else:
        print(render())
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
