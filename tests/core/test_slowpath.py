"""Tests for the ARM slow path (ralloc/rfree handling)."""

import pytest

from repro.alloc import FreeListStrategy
from repro.core.addr import PageSpec, Permission
from repro.core.memory import DRAM
from repro.core.page_table import HashPageTable
from repro.core.slowpath import SlowPath
from repro.core.tlb import TLB
from repro.core.va_allocator import VAAllocator
from repro.params import CBoardParams, GBPS, US

MB = 1 << 20
PAGE = 4 * MB

from repro.sim import Environment


def make_slowpath(pages=64):
    env = Environment()
    params = CBoardParams()
    spec = PageSpec(PAGE)
    table = HashPageTable(pages, slots_per_bucket=4, overprovision=2.0)
    va = VAAllocator(table, spec)
    pa = FreeListStrategy(pages)
    tlb = TLB(8)
    dram = DRAM(pages * PAGE, 300, 120 * GBPS)
    slow = SlowPath(env, params, va, pa, tlb, dram=dram)
    return env, slow, table, pa, tlb, dram


def run(env, generator):
    return env.run(until=env.process(generator))


def test_alloc_returns_va_and_costs_slow_path_time():
    env, slow, table, *_ = make_slowpath()
    start = env.now
    response = run(env, slow.handle_alloc(pid=1, size=100))
    assert response.ok
    assert response.size == PAGE
    elapsed = env.now - start
    params = CBoardParams()
    # handoff in + search + handoff out, no retries when table is empty.
    assert elapsed == 2 * params.arm_polling_handoff_ns + params.arm_va_search_ns
    assert response.retries == 0


def test_alloc_failure_reports_error():
    env, slow, *_ = make_slowpath(pages=2)
    # Exhaust all slots, next alloc must fail gracefully.
    responses = []

    def fill():
        for _ in range(64):
            response = yield from slow.handle_alloc(pid=1, size=PAGE)
            responses.append(response)
            if not response.ok:
                return

    run(env, fill())
    assert any(not response.ok for response in responses)
    failed = [response for response in responses if not response.ok][0]
    assert failed.error


def test_alloc_retry_cost_charged():
    env, slow, table, *_ = make_slowpath(pages=8)
    params = CBoardParams()

    def fill():
        durations = []
        while True:
            start = env.now
            response = yield from slow.handle_alloc(pid=1, size=PAGE)
            if not response.ok:
                return durations
            durations.append((env.now - start, response.retries))

    durations = run(env, fill())
    with_retries = [(duration, retries) for duration, retries in durations
                    if retries > 0]
    for duration, retries in with_retries:
        assert duration >= retries * params.arm_retry_ns


def test_free_recycles_and_zeroes_pages():
    env, slow, table, pa, tlb, dram = make_slowpath()
    response = run(env, slow.handle_alloc(pid=1, size=PAGE))
    vpn = response.va // PAGE
    table.set_present(1, vpn, ppn=3)
    pa._free.remove(3)
    pa._free_set.discard(3)
    dram.write(3 * PAGE + 10, b"secret")
    tlb.insert(1, vpn, 3, Permission.READ_WRITE)

    free_response = run(env, slow.handle_free(pid=1, va=response.va))
    assert free_response.ok and free_response.freed_pages == 1
    assert dram.read(3 * PAGE + 10, 6) == bytes(6)   # zeroed (R5)
    assert tlb.lookup(1, vpn) is None                # shot down
    assert pa.is_free(3)


def test_free_unknown_va_fails_gracefully():
    env, slow, *_ = make_slowpath()
    response = run(env, slow.handle_free(pid=1, va=PAGE))
    assert not response.ok


def test_single_pa_alloc_under_20us():
    env, slow, *_ = make_slowpath()
    start = env.now
    ppn = run(env, slow.single_pa_alloc())
    assert isinstance(ppn, int)
    assert env.now - start < 20 * US   # paper: PA allocation < 20 us


def test_workers_limit_concurrency():
    env, slow, *_ = make_slowpath()
    params = CBoardParams()
    finish_times = []

    def alloc():
        yield from slow.handle_alloc(pid=1, size=PAGE)
        finish_times.append(env.now)

    procs = [env.process(alloc()) for _ in range(6)]
    env.run(until=env.all_of(procs))
    # 3 workers (4 ARM cores - 1 polling): 6 allocs take two waves.
    assert len(set(finish_times)) >= 2
