"""Stress scenarios: mixed concurrent traffic through the full stack.

These are the "everything at once" tests: data ops, metadata ops,
atomics, fences, and offloads interleaving from multiple CNs against one
board, checking global invariants at the end.
"""

import pytest

from repro.apps.kv_store import ClioKV, register_kv_offload
from repro.cluster import ClioCluster

MB = 1 << 20
PAGE = 4 * MB


def test_mixed_traffic_storm():
    """12 workers across 4 CNs doing different op types simultaneously."""
    cluster = ClioCluster(num_cns=4, mn_capacity=1 << 30)
    register_kv_offload(cluster.mn.extend_path, buckets=256)
    env = cluster.env
    results = {"writers": 0, "allocators": 0, "kv": 0, "counters": []}

    def writer(index):
        thread = cluster.cn(index % 4).process("mn0").thread()
        va = yield from thread.ralloc(PAGE)
        for round_index in range(6):
            payload = bytes([index, round_index]) * 100
            yield from thread.rwrite(va + round_index * 256, payload)
            data = yield from thread.rread(va + round_index * 256, 200)
            assert data == payload
        yield from thread.rfence()
        results["writers"] += 1

    def allocator(index):
        thread = cluster.cn(index % 4).process("mn0").thread()
        vas = []
        for _ in range(4):
            va = yield from thread.ralloc(PAGE)
            yield from thread.rwrite(va, b"alloc-cycle")
            vas.append(va)
        for va in vas[:2]:
            yield from thread.rfree(va)
        results["allocators"] += 1

    def kv_client(index):
        kv = ClioKV(cluster.cn(index % 4).process("mn0").thread())
        for round_index in range(6):
            key = b"stress-%d-%d" % (index, round_index)
            yield from kv.put(key, b"v" * 64)
            value = yield from kv.get(key)
            assert value == b"v" * 64
        results["kv"] += 1

    def counter(lock_holder, shared):
        thread, lock_va, counter_va = shared
        handle = thread.process.thread()
        for _ in range(4):
            yield from handle.rlock(lock_va)
            old = yield from thread.rfaa(counter_va, 1)
            yield from handle.runlock(lock_va)
        results["counters"].append(True)

    def spawn_all():
        # Shared lock-protected counter across CNs.
        thread = cluster.cn(0).process("mn0").thread()
        lock_va = yield from thread.ralloc(8)
        counter_va = yield from thread.ralloc(8)
        shared = (thread, lock_va, counter_va)
        procs = []
        for index in range(4):
            procs.append(env.process(writer(index)))
            procs.append(env.process(allocator(index)))
            procs.append(env.process(kv_client(index)))
        for index in range(2):
            procs.append(env.process(counter(index, shared)))
        yield env.all_of(procs)
        final = yield from thread.rfaa(counter_va, 0)
        return final

    final_count = cluster.run(until=env.process(spawn_all()))
    assert results["writers"] == 4
    assert results["allocators"] == 4
    assert results["kv"] == 4
    assert len(results["counters"]) == 2
    assert final_count == 8          # 2 counters x 4 increments, exact
    assert cluster.mn.metrics.snapshot()["requests_served"] > 100


def test_alloc_free_churn_does_not_leak():
    """Repeated alloc/write/free cycles return the board to steady state."""
    cluster = ClioCluster(mn_capacity=256 * MB)
    thread = cluster.cn(0).process("mn0").thread()
    board = cluster.mn

    def app():
        for cycle in range(20):
            va = yield from thread.ralloc(2 * PAGE)
            yield from thread.rwrite(va, b"churn")
            yield from thread.rwrite(va + PAGE, b"churn")
            yield from thread.rfree(va)

    cluster.run(until=cluster.env.process(app()))
    assert board.page_table.entry_count == 0
    # All frames are back (free list + async-buffer reserve).
    total = (board.pa_allocator.free_pages
             + len(board.buffers.shared))
    assert total == board.pa_allocator.physical_pages


def test_fence_heavy_interleaving_preserves_order():
    """Writers separated by fences never observe reordering."""
    cluster = ClioCluster(mn_capacity=256 * MB)
    thread = cluster.cn(0).process("mn0").thread()
    observed = []

    def app():
        va = yield from thread.ralloc(PAGE)
        for epoch in range(8):
            handles = []
            for slot in range(4):
                handle = yield from thread.rwrite_async(
                    va + slot * 1024, bytes([epoch]) * 64)
                handles.append(handle)
            yield from thread.rfence()
            # After the fence, every slot must show the current epoch.
            for slot in range(4):
                data = yield from thread.rread(va + slot * 1024, 64)
                observed.append((epoch, slot, data == bytes([epoch]) * 64))

    cluster.run(until=cluster.env.process(app()))
    assert all(ok for _, _, ok in observed)
    assert len(observed) == 32
