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


def test_buddy_lost_coalesce_detected():
    """Seeded bug: two free sibling buddy blocks left unmerged.

    Split a free block by hand — remove an order-k block, insert its two
    order-(k-1) halves — exactly the state a broken coalesce leaves
    behind.  The sweep must flag it; conservation still holds, so only
    the coalesce audit can catch this.
    """
    cluster, board = make_board("buddy")
    strategy = board.pa_allocator
    assert check_board(board) == []  # control: healthy after real traffic

    order = next(o for o in range(strategy.max_order, 0, -1)
                 if strategy._free_lists[o])
    base = strategy._free_lists[order][0]
    strategy._remove_block(base, order)
    half = 1 << (order - 1)
    strategy._insert_block(base, order - 1)
    strategy._insert_block(base + half, order - 1)

    found = names(check_board(board))
    assert "alloc-buddy-lost-coalesce" in found, found


def test_slab_double_free_detected():
    """Seeded bug: one page pushed twice onto a slab free stack.

    The duplicate silently inflates the free count — the double-free
    shadow set would have rejected the second ``free()``, so the bug is
    planted below it, the way a raw pointer bug would corrupt the stack.
    """
    cluster, board = make_board("slab")
    strategy = board.pa_allocator
    assert check_board(board) == []

    idx, stack = next((i, s) for i, s in enumerate(strategy._slab_free) if s)
    stack.append(stack[0])
    strategy._free_count += 1

    found = names(check_board(board))
    assert "alloc-slab-duplicate-free" in found, found


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


def test_freelist_duplicate_entry_detected():
    """Seeded bug: the FIFO list holds the same page twice."""
    cluster, board = make_board("freelist")
    strategy = board.pa_allocator
    assert check_board(board) == []

    strategy._free.append(strategy._free[0])  # bypass the shadow set

    found = names(check_board(board))
    assert "alloc-freelist-duplicate" in found, found
