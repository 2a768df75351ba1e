"""Seeded allocator bugs: prove the strategy audits can actually fail.

Mirrors tests/verify/test_seeded_bugs.py for the allocation layer: each
test plants one classic allocator defect directly in a live board's
strategy state and asserts the invariant sweep reports the matching
``alloc-*`` violation — with a clean control run alongside.
"""

from dataclasses import replace

from repro.cluster import ClioCluster
from repro.params import KB, MB, AllocParams, ClioParams
from repro.verify import check_board

PID = 4242


def make_board(strategy):
    # 64 KB pages => 1024 pages, so the pool stays deep behind the
    # async buffer's reservations and every strategy has free state
    # worth corrupting.
    params = replace(ClioParams.prototype(),
                     alloc=AllocParams(pa_strategy=strategy))
    cluster = ClioCluster(params=params, num_cns=1, mn_capacity=64 * MB,
                          seed=1, page_size=64 * KB)
    board = cluster.mn

    def app():
        thread = cluster.cn(0).process("mn0", pid=PID).thread()
        for index in range(6):
            va = yield from thread.ralloc(4096)
            yield from thread.rwrite(va, bytes([index]) * 32)

    cluster.run(until=cluster.env.process(app()))
    return cluster, board


def names(violations):
    return [violation.invariant for violation in violations]


def test_arena_double_account_detected():
    """Seeded bug: a stashed page also returned to the global pool.

    A spill that forgets to drop pages from the stash leaves them owned
    twice; the arena audit must see the stash/global overlap.
    """
    cluster, board = make_board("arena")
    strategy = board.pa_allocator
    assert check_board(board) == []

    stash = next(s for s in strategy._stash.values() if s)
    strategy.base.free(stash[0], None)  # page now global AND stashed

    found = names(check_board(board))
    assert "alloc-arena-double-account" in found, found


def test_arena_duplicate_stash_detected():
    """Seeded bug: one page sits in two arenas' stashes at once.

    The stash set still tracks it once, so the count stays right and
    only the per-stash walk sees that two processes could both be
    handed the page.
    """
    cluster, board = make_board("arena")
    strategy = board.pa_allocator
    assert check_board(board) == []

    stash = next(s for s in strategy._stash.values() if s)
    strategy._stash.setdefault(PID + 1, []).append(stash[0])

    found = names(check_board(board))
    assert "alloc-arena-duplicate-stash" in found, found


def test_arena_set_drift_detected():
    """Seeded bug: a page leaves the stash set but stays on its stash.

    The membership probe now calls a stashed page allocated, so a free
    of it would be accepted twice; the audit must see the set and the
    stashes disagree.
    """
    cluster, board = make_board("arena")
    strategy = board.pa_allocator
    assert check_board(board) == []

    stash = next(s for s in strategy._stash.values() if s)
    strategy._stashed_set.discard(stash[0])

    found = names(check_board(board))
    assert "alloc-arena-set-drift" in found, found


def test_freelist_duplicate_entry_detected():
    """Seeded bug: the FIFO list holds the same page twice."""
    cluster, board = make_board("freelist")
    strategy = board.pa_allocator
    assert check_board(board) == []

    strategy._free.append(strategy._free[0])  # bypass the shadow set

    found = names(check_board(board))
    assert "alloc-freelist-duplicate" in found, found
