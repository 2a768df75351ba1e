"""Tests for the deterministic fast-path pipeline."""

import pytest

from repro.core.addr import AccessType, PageSpec, Permission
from repro.core.memory import DRAM
from repro.core.pa_allocator import AsyncBuffer, PAAllocator
from repro.core.page_table import HashPageTable
from repro.core.pipeline import FastPath, Status
from repro.core.tlb import TLB
from repro.params import CBoardParams, GBPS
from repro.sim import Environment

MB = 1 << 20
PAGE = 4 * MB


def make_fast_path(pages=64, tlb_entries=8):
    env = Environment()
    params = CBoardParams()
    spec = PageSpec(PAGE)
    dram = DRAM(pages * PAGE, params.dram_access_ns, params.dram_bandwidth_bps)
    table = HashPageTable(pages, slots_per_bucket=4, overprovision=2.0)
    tlb = TLB(tlb_entries)
    pa = PAAllocator(pages)
    buffer = AsyncBuffer(env, pa, depth=min(16, pages),
                         refill_ns=params.arm_pa_alloc_ns)
    buffer.prefill()
    fast = FastPath(env, params, dram, table, tlb, buffer, spec)
    return env, fast, table, tlb


def run(env, generator):
    return env.run(until=env.process(generator))


def test_read_unallocated_va_is_invalid():
    env, fast, _, _ = make_fast_path()
    result = run(env, fast.execute(1, AccessType.READ, PAGE, 16))
    assert result.status is Status.INVALID_VA


def test_first_write_faults_then_hits():
    env, fast, table, _ = make_fast_path()
    table.insert(1, 1, Permission.READ_WRITE)
    first = run(env, fast.execute(1, AccessType.WRITE, PAGE, 4, data=b"abcd"))
    assert first.status is Status.OK
    assert first.faulted and first.tlb_missed
    second = run(env, fast.execute(1, AccessType.READ, PAGE, 4))
    assert second.status is Status.OK
    assert second.data == b"abcd"
    assert not second.faulted and not second.tlb_missed


def test_permission_enforced():
    env, fast, table, _ = make_fast_path()
    table.insert(1, 1, Permission.READ)
    result = run(env, fast.execute(1, AccessType.WRITE, PAGE, 4, data=b"abcd"))
    assert result.status is Status.PERMISSION


def test_permission_enforced_on_tlb_hit_path():
    env, fast, table, _ = make_fast_path()
    table.insert(1, 1, Permission.READ)
    run(env, fast.execute(1, AccessType.READ, PAGE, 4))        # warm TLB
    result = run(env, fast.execute(1, AccessType.WRITE, PAGE, 4, data=b"abcd"))
    assert result.status is Status.PERMISSION


def test_pid_isolation_between_processes():
    env, fast, table, _ = make_fast_path()
    table.insert(1, 1, Permission.READ_WRITE)
    run(env, fast.execute(1, AccessType.WRITE, PAGE, 4, data=b"p1!!"))
    result = run(env, fast.execute(2, AccessType.READ, PAGE, 4))
    assert result.status is Status.INVALID_VA  # pid 2 has no mapping


def test_tlb_miss_costs_exactly_one_dram_access():
    env, fast, table, tlb = make_fast_path()
    table.insert(1, 1, Permission.READ_WRITE)
    miss = run(env, fast.execute(1, AccessType.WRITE, PAGE, 4, data=b"abcd"))
    hit = run(env, fast.execute(1, AccessType.WRITE, PAGE, 4, data=b"abcd"))
    # Hit path saves the bucket fetch; difference == one bucket fetch time.
    bucket_ns = fast.dram.access_time_ns(64)
    assert miss.breakdown.tlb_miss_ns == bucket_ns
    assert hit.breakdown.tlb_miss_ns == 0


def test_miss_and_fault_flags_belong_to_the_request():
    """A hit that overlaps another request's miss and fault reports
    neither: the flags come from the walk this request ran, not from the
    board's counters moving while it was in flight."""
    env, fast, table, _ = make_fast_path()
    table.insert(1, 1, Permission.READ_WRITE)
    table.insert(1, 2, Permission.READ_WRITE)
    run(env, fast.execute(1, AccessType.WRITE, PAGE, 4, data=b"warm"))
    results = {}

    def issue(name, va, delay):
        yield env.timeout(delay)
        results[name] = yield from fast.execute(1, AccessType.READ, va, 4)

    env.run(until=env.all_of([env.process(issue("hit", PAGE, 0)),
                              env.process(issue("miss", 2 * PAGE, 5))]))
    hit, miss = results["hit"], results["miss"]
    assert hit.status is Status.OK and miss.status is Status.OK
    assert hit.breakdown.tlb_miss_ns == 0 and hit.breakdown.fault_ns == 0
    assert not hit.tlb_missed and not hit.faulted
    assert miss.tlb_missed and miss.faulted


def test_tlb_is_looked_up_when_ingest_ends_not_at_the_call():
    """A request whose TLB entry is evicted while it is still being
    ingested -- by another request's miss -- must walk the page table."""
    env, fast, table, tlb = make_fast_path(tlb_entries=1)
    table.insert(1, 1, Permission.READ_WRITE)
    table.insert(1, 2, Permission.READ_WRITE)
    run(env, fast.execute(1, AccessType.WRITE, 2 * PAGE, 4, data=b"two!"))
    run(env, fast.execute(1, AccessType.WRITE, PAGE, 4, data=b"one!"))
    assert tlb.lookup(1, 1) is not None       # page 1 holds the one entry
    results = {}

    def evictor():
        results["evictor"] = yield from fast.execute(
            1, AccessType.READ, 2 * PAGE, 4)

    def victim():
        yield env.timeout(1)
        # 1 000 flits of intake: ingest ends long after the evictor's walk.
        results["victim"] = yield from fast.execute(
            1, AccessType.READ, PAGE, 4, wire_bytes=64 * 1000)

    env.run(until=env.all_of([env.process(evictor()),
                              env.process(victim())]))
    victim = results["victim"]
    assert results["evictor"].tlb_missed
    assert victim.status is Status.OK and victim.data == b"one!"
    assert victim.tlb_missed
    assert victim.breakdown.tlb_miss_ns == fast.dram.access_time_ns(64)


def test_fault_adds_exactly_bounded_cycles_plus_pop():
    env, fast, table, _ = make_fast_path()
    table.insert(1, 1, Permission.READ_WRITE)
    table.insert(1, 2, Permission.READ_WRITE)
    faulting = run(env, fast.execute(1, AccessType.WRITE, PAGE, 4, data=b"aaaa"))
    # Second access to another never-touched page also faults.
    faulting2 = run(env, fast.execute(1, AccessType.WRITE, 2 * PAGE, 4, data=b"bbbb"))
    params = CBoardParams()
    bound = int(round(params.fault_cycles * params.cycle_ns))
    assert faulting.breakdown.fault_ns == bound   # pop was immediate
    assert faulting2.breakdown.fault_ns == bound


def test_fixed_pipeline_latency_is_deterministic():
    env, fast, table, _ = make_fast_path()
    table.insert(1, 1, Permission.READ_WRITE)
    run(env, fast.execute(1, AccessType.WRITE, PAGE, 16, data=b"x" * 16))
    latencies = set()
    for _ in range(20):
        result = run(env, fast.execute(1, AccessType.READ, PAGE, 16))
        latencies.add(result.breakdown.total_ns)
    # Steady state (TLB hit, no fault): every request takes identical time.
    assert len(latencies) == 1


def test_cross_page_access_translates_both_pages():
    env, fast, table, _ = make_fast_path()
    table.insert(1, 1, Permission.READ_WRITE)
    table.insert(1, 2, Permission.READ_WRITE)
    va = 2 * PAGE - 8
    data = bytes(range(16))
    result = run(env, fast.execute(1, AccessType.WRITE, va, 16, data=data))
    assert result.status is Status.OK
    back = run(env, fast.execute(1, AccessType.READ, va, 16))
    assert back.data == data


def test_cross_page_write_lands_on_distinct_physical_pages():
    env, fast, table, _ = make_fast_path()
    table.insert(1, 1, Permission.READ_WRITE)
    table.insert(1, 2, Permission.READ_WRITE)
    run(env, fast.execute(1, AccessType.WRITE, 2 * PAGE - 4, 8,
                          data=b"ABCDEFGH"))
    left = table.lookup(1, 1)
    right = table.lookup(1, 2)
    assert left.present and right.present and left.ppn != right.ppn


def test_ingestion_serializes_back_to_back_requests():
    env, fast, table, _ = make_fast_path()
    table.insert(1, 1, Permission.READ_WRITE)
    # Two simultaneous large writes: the second's ingest waits for the first.
    data = b"z" * 1024
    results = []

    def issue():
        results.append((yield from fast.execute(
            1, AccessType.WRITE, PAGE, 1024, data=data, wire_bytes=1088)))

    p1 = env.process(issue())
    p2 = env.process(issue())
    env.run(until=env.all_of([p1, p2]))
    first, second = results
    assert second.breakdown.ingest_ns > first.breakdown.ingest_ns


def test_ingest_delay_models_flit_count():
    env, fast, _, _ = make_fast_path()
    small = fast.ingest_delay_ns(64)     # 1 flit
    env2, fast2, _, _ = make_fast_path()
    big = fast2.ingest_delay_ns(6400)    # 100 flits
    assert big == 100 * small


def test_write_requires_matching_data():
    env, fast, table, _ = make_fast_path()
    table.insert(1, 1, Permission.READ_WRITE)
    with pytest.raises(ValueError):
        run(env, fast.execute(1, AccessType.WRITE, PAGE, 8, data=b"xy"))
    with pytest.raises(ValueError):
        run(env, fast.execute(1, AccessType.WRITE, PAGE, 8))


def test_zero_size_rejected():
    env, fast, _, _ = make_fast_path()
    with pytest.raises(ValueError):
        run(env, fast.execute(1, AccessType.READ, PAGE, 0))


def test_oom_when_no_physical_pages_left():
    env, fast, table, _ = make_fast_path(pages=2)
    # Only 2 physical pages, both pre-reserved; map and use them.
    table.insert(1, 1, Permission.READ_WRITE)
    table.insert(1, 2, Permission.READ_WRITE)
    table.insert(1, 3, Permission.READ_WRITE)
    run(env, fast.execute(1, AccessType.WRITE, PAGE, 4, data=b"1111"))
    run(env, fast.execute(1, AccessType.WRITE, 2 * PAGE, 4, data=b"2222"))
    result = run(env, fast.execute(1, AccessType.WRITE, 3 * PAGE, 4, data=b"3333"))
    assert result.status is Status.OOM


def test_translate_only_returns_physical_address():
    env, fast, table, _ = make_fast_path()
    table.insert(1, 1, Permission.READ_WRITE)
    run(env, fast.execute(1, AccessType.WRITE, PAGE, 4, data=b"abcd"))
    ppn = table.lookup(1, 1).ppn

    def probe():
        status, pa = yield from fast.translate_only(1, AccessType.READ,
                                                    PAGE + 100)
        return status, pa

    status, pa = run(env, probe())
    assert status is Status.OK
    assert pa == ppn * PAGE + 100
