"""``src/`` stays under a ceiling: size is a gate, not a report.

ROADMAP's *Small* aim is measured by ``tools/code_lines.py``.  A PR that
must grow ``src/`` raises the constant below in its own diff, where
review sees it; one that shrinks it lowers the constant to the new count
so the ground is kept.
"""

from tools.code_lines import ROOT, count_files

#: ``python tools/code_lines.py`` after the engine lost interrupts,
#: cancellation, ``AnyOf`` and ``Container`` (13 542 before it), plus 39
#: for the board's TLB-hit lane: the lane callback, the DMA-claim and
#: TLB-check routines it shares with multi-page accesses, a one-chunk
#: ``DRAM.read`` and ``Event.resume_waiters``; plus 25 for the transport's
#: ack lane (``Transport._ack`` and the request state it reads), the cached
#: fast-path TIMEOUT and the explicit zero-size read checks, net of the
#: merged ``checked_access`` and the deleted ``Packet.uid``.
SRC_CEILING = 13_404


def test_src_stays_under_its_ceiling():
    total = sum(count_files([ROOT / "src"]).values())
    assert total <= SRC_CEILING, (
        f"src/ is {total} code lines, over the {SRC_CEILING} ceiling: "
        "shrink it, or raise SRC_CEILING in this diff and say why")
