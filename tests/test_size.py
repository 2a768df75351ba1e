"""``src/`` stays under a ceiling: size is a gate, not a report.

ROADMAP's *Small* aim is measured by ``tools/code_lines.py``.  A PR that
must grow ``src/`` raises the constant below in its own diff, where
review sees it; one that shrinks it lowers the constant to the new count
so the ground is kept.
"""

from tools.code_lines import ROOT, count_files

#: ``python tools/code_lines.py`` once what only tests reached was deleted
#: (13 404 before): the graph, analytics and embeddings apps, the
#: Go-Back-N protocol (its byte formula moved into
#: ``core/state_accounting.py``), the microbench driver, and the
#: single-use definitions ``tools/reach.py`` listed — ``run_rack_chaos``,
#: ``arc_share``, ``with_lock``, ``invalidate_pid``, ``tenant_of``,
#: ``zipf_index`` and the gather ``read_many`` only embeddings used.
SRC_CEILING = 12_866


def test_src_stays_under_its_ceiling():
    total = sum(count_files([ROOT / "src"]).values())
    assert total <= SRC_CEILING, (
        f"src/ is {total} code lines, over the {SRC_CEILING} ceiling: "
        "shrink it, or raise SRC_CEILING in this diff and say why")
