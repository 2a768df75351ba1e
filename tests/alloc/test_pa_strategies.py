"""Unit tests for the pluggable PA strategies (repro.alloc).

Each strategy is exercised directly — no cluster, no simulation — so
these tests pin the bookkeeping contracts the board-level invariant
sweeps later rely on: conservation, double-free rejection, FIFO
recycling, and crossing amortization.
"""

import pytest

from repro.alloc import (
    PA_STRATEGIES,
    ArenaStrategy,
    DoubleFreeError,
    FreeListStrategy,
    OutOfMemoryError,
    make_pa_strategy,
)
from repro.params import AllocParams

ALL_NAMES = sorted(PA_STRATEGIES)


def make(name, pages, **knobs):
    return make_pa_strategy(name, pages, AllocParams(**knobs))


def drain(strategy, n, pid=None):
    return [strategy.allocate(pid) for _ in range(n)]


# -- contracts common to every strategy ---------------------------------------


@pytest.mark.parametrize("name", ALL_NAMES)
def test_allocate_unique_in_range_and_conserves(name):
    s = make(name, 64)
    got = drain(s, 64)
    assert sorted(got) == list(range(64))
    assert s.free_pages == 0
    with pytest.raises(OutOfMemoryError):
        s.allocate()
    for ppn in got:
        s.free(ppn)
    assert s.free_pages == 64
    assert sorted(s.free_ppns()) == list(range(64))
    assert s.check() == []


@pytest.mark.parametrize("name", ALL_NAMES)
def test_double_free_rejected(name):
    s = make(name, 32)
    ppn = s.allocate(pid=1)
    s.free(ppn, pid=1)
    with pytest.raises(DoubleFreeError):
        s.free(ppn, pid=1)
    # DoubleFreeError is a ValueError, so legacy except-clauses still catch.
    assert issubclass(DoubleFreeError, ValueError)


@pytest.mark.parametrize("name", ALL_NAMES)
def test_never_free_page_rejected(name):
    s = make(name, 16)
    with pytest.raises(DoubleFreeError):
        s.free(3)  # never allocated => still free => double free


@pytest.mark.parametrize("name", ALL_NAMES)
def test_is_free_tracks_state(name):
    s = make(name, 16)
    assert all(s.is_free(p) for p in range(16))
    ppn = s.allocate(pid=2)
    assert not s.is_free(ppn)
    s.free(ppn, pid=2)
    assert s.is_free(ppn)


@pytest.mark.parametrize("name", ALL_NAMES)
def test_fragmentation_bounded(name):
    s = make(name, 100)
    held = drain(s, 37, pid=5)
    for ppn in held[::3]:
        s.free(ppn, pid=5)
    assert 0.0 <= s.fragmentation <= 1.0


def test_make_pa_strategy_unknown_name():
    with pytest.raises(ValueError, match="unknown PA strategy"):
        make("bump", 16)


# -- free list ----------------------------------------------------------------


def test_freelist_fifo_recycling_order():
    s = FreeListStrategy(8)
    assert drain(s, 3) == [0, 1, 2]
    s.free(1)
    s.free(0)
    # FIFO: untouched tail first, then freed pages in free order.
    assert drain(s, 7) == [3, 4, 5, 6, 7, 1, 0]


def test_freelist_every_op_is_a_crossing():
    s = FreeListStrategy(8)
    for _ in range(4):
        s.free(s.allocate())
    assert s.slow_crossings == 8


# -- arena --------------------------------------------------------------------


def test_arena_batches_amortize_crossings():
    s = ArenaStrategy(256, batch_pages=16, stash_max=64)
    for _ in range(100):
        s.free(s.allocate(pid=7), pid=7)
    # 1 refill crossing serves the whole ping-pong churn.
    assert s.slow_crossings == 1
    assert s.batch_refills == 1

    plain = FreeListStrategy(256)
    for _ in range(100):
        plain.free(plain.allocate(), None)
    assert plain.slow_crossings == 200
    assert s.slow_crossings * 2 <= plain.slow_crossings


def test_arena_stash_spills_oldest_half():
    s = ArenaStrategy(128, batch_pages=4, stash_max=8)
    held = drain(s, 16, pid=1)
    for ppn in held:
        s.free(ppn, pid=1)
    assert s.spills >= 1
    # Spilled pages went back to the global pool; conservation holds.
    assert s.free_pages == 128
    assert s.base.free_pages + len(s._stashed_set) == 128
    assert s.check() == []


def test_arena_reclaims_from_sibling_before_oom():
    s = ArenaStrategy(8, batch_pages=8, stash_max=8)
    ppn = s.allocate(pid=1)     # pid 1 stashes the whole pool
    s.free(ppn, pid=1)
    assert s.base.free_pages == 0
    got = s.allocate(pid=2)     # global dry: reclaim from pid 1's stash
    assert s.reclaims == 1
    assert got in range(8)
    # True OOM only when global + every stash is empty.
    drain(s, 7, pid=2)
    with pytest.raises(OutOfMemoryError):
        s.allocate(pid=2)


def test_arena_conservation_includes_stashes():
    s = ArenaStrategy(64, batch_pages=8, stash_max=16)
    held = drain(s, 10, pid=3)
    assert s.free_pages == 54
    for ppn in held[:5]:
        s.free(ppn, pid=3)
    assert s.free_pages == 59
    assert sorted(s.free_ppns()) == sorted(
        set(range(64)) - set(held[5:]))


def test_arena_validates_knobs():
    """The knobs are checked once, by AllocParams."""
    with pytest.raises(ValueError):
        make("arena", 16, arena_batch_pages=0)
    with pytest.raises(ValueError):
        make("arena", 16, arena_batch_pages=8, arena_stash_max=4)
    # A batch larger than the pool is clamped to the pool.
    assert make("arena", 8).batch_pages == 8


def test_arena_reclaims_the_shared_buffers_stash():
    """Pid None is an arena too: the board's shared buffer stashes its
    batch under it, so reclaim must be able to pick it as the victim."""
    s = make("arena", 16, arena_batch_pages=16)
    s.allocate(None)            # None's stash takes the whole pool
    assert s.free_pages == 15
    assert s.allocate(1) in range(16)
    assert s.reclaims == 1
    assert s.free_pages == 14


def test_arena_reclaim_tie_takes_the_first_stash():
    s = make("arena", 8, arena_batch_pages=4, arena_stash_max=4)
    first = s.allocate(1)       # pid 1 stashes 4, pid 2 the other 4
    second = s.allocate(2)
    s.free(first, 1)
    s.free(second, 2)           # both stashes hold 4: a tie
    s.allocate(3)
    assert len(s._stash[1]) == 3 and len(s._stash[2]) == 4
