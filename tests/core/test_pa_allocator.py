"""Tests for the PA free-list and async free-page buffer."""

import pytest

from repro.alloc import (
    DoubleFreeError,
    OutOfMemoryError,
    make_pa_strategy,
)
from repro.core.pa_allocator import AsyncBuffer
from repro.params import AllocParams
from repro.sim import Environment


def freelist(physical_pages):
    """The board's default page allocator: the FIFO free list."""
    return make_pa_strategy("freelist", physical_pages, AllocParams())


def test_freelist_allocate_and_free():
    pa = freelist(4)
    pages = [pa.allocate() for _ in range(4)]
    assert sorted(pages) == [0, 1, 2, 3]
    with pytest.raises(OutOfMemoryError):
        pa.allocate()
    pa.free(2)
    assert pa.allocate() == 2


def test_free_rejects_out_of_range_ppn():
    pa = freelist(4)
    with pytest.raises(ValueError):
        pa.free(4)


def test_free_rejects_double_free():
    """Regression: a double free used to silently duplicate the page on
    the free list, breaking conservation two allocations later."""
    pa = freelist(4)
    ppn = pa.allocate()
    pa.free(ppn)
    with pytest.raises(DoubleFreeError):
        pa.free(ppn)
    with pytest.raises(DoubleFreeError):
        pa.free(3)  # never allocated => still free
    # The rejected frees left no duplicate behind.
    assert pa.free_pages == 4
    assert sorted(pa.free_ppns()) == [0, 1, 2, 3]
    assert isinstance(DoubleFreeError("x"), ValueError)


def test_utilization_tracks_mapped_pages():
    pa = freelist(10)
    assert pa.utilization == 0.0
    for _ in range(5):
        pa.allocate()
    assert pa.utilization == pytest.approx(0.5)


def test_prefill_stocks_buffer():
    env = Environment()
    pa = freelist(100)
    buffer = AsyncBuffer(env, pa, depth=16, refill_ns=15_000)
    buffer.prefill()
    assert len(buffer) == 16
    assert pa.free_pages == 84


def test_pop_is_immediate_when_stocked():
    env = Environment()
    pa = freelist(100)
    buffer = AsyncBuffer(env, pa, depth=8, refill_ns=15_000)
    buffer.prefill()
    got = []

    def fault_handler():
        ppn = yield buffer.pop()
        got.append((ppn, env.now))

    env.process(fault_handler())
    env.run(until=10)
    assert got and got[0][1] == 0  # no waiting: page was pre-reserved
    assert buffer.underruns == 0


def test_refill_replenishes_after_pops():
    env = Environment()
    pa = freelist(100)
    buffer = AsyncBuffer(env, pa, depth=4, refill_ns=1_000)

    def drain():
        for _ in range(4):
            yield buffer.pop()

    env.process(drain())
    env.run(until=1_000_000)
    assert len(buffer) == 4  # background refill restored the stock


def test_underrun_counted_when_memory_exhausted():
    env = Environment()
    pa = freelist(2)
    buffer = AsyncBuffer(env, pa, depth=2, refill_ns=1_000)
    buffer.prefill()
    got = []

    def drain():
        for _ in range(3):
            ppn = yield buffer.pop()
            got.append(ppn)

    env.process(drain())
    env.run(until=100_000)
    assert len(got) == 2          # third pop can never be satisfied
    assert buffer.underruns == 1


def test_return_unused_recycles_page():
    env = Environment()
    pa = freelist(10)
    buffer = AsyncBuffer(env, pa, depth=2, refill_ns=1_000)
    buffer.prefill()

    def proc():
        ppn = yield buffer.pop()
        buffer.return_unused(ppn)

    env.process(proc())
    env.run(until=10)
    assert pa.free_pages == 9  # 2 still reserved in buffer after one recycle...

def test_invalid_construction():
    with pytest.raises(ValueError):
        freelist(0)
