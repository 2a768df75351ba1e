"""The batched data path: vector ops, the adaptive batcher, determinism.

Covers the repro.clib.batch acceptance bar from the CLib side:

* ``rwritev``/``rreadv`` scatter/gather correctness, including per-op
  rejection statuses inside an otherwise-successful frame;
* the opt-in per-thread batcher's flush policy (count, byte budget,
  window timer) and its counters at every layer (batcher, transport,
  CBoard);
* batched runs are deterministic (same-seed bit-identical) and the
  canonical batched workload is pinned under its own golden key —
  batching *off* stays covered by the pre-existing no-fault golden
  fingerprint in ``tests/faults/test_chaos.py``, which this PR must not
  move.
"""

import pytest

from repro.clib.client import RemoteAccessError
from repro.cluster import ClioCluster
from repro.core.pipeline import Status

MB = 1 << 20

#: Golden fingerprint of the canonical *batched* workload (new key: this
#: run did not exist before repro.clib.batch).  Same seed + params must stay
#: bit-identical; move it only with a deliberate re-pin.
GOLDEN_BATCHED = (125245, (120527, 125245), 86, 512,
                  (43, 43), (256, 256), (0, 0))


def make_cluster(**kwargs):
    kwargs.setdefault("mn_capacity", 256 * MB)
    return ClioCluster(**kwargs)


def run_app(cluster, generator):
    return cluster.run(until=cluster.env.process(generator))


def byte_thread(cluster, cn=0, pid=None):
    """Byte-granular ordering so disjoint ops in one page can batch."""
    process = (cluster.cn(cn).process("mn0", pid=pid) if pid
               else cluster.cn(cn).process("mn0"))
    return process.thread(ordering_granularity="byte")


# -- vector ops --------------------------------------------------------------------


def test_rwritev_rreadv_roundtrip():
    cluster = make_cluster()
    thread = byte_thread(cluster)
    chunks = [bytes([index]) * (16 + 8 * index) for index in range(20)]
    result = {}

    def app():
        va = yield from thread.ralloc(1 * MB)
        offsets = []
        cursor = va
        for chunk in chunks:
            offsets.append(cursor)
            cursor += len(chunk) + 32     # gaps: true scatter, not one blob
        yield from thread.rwritev(list(zip(offsets, chunks)))
        result["read"] = yield from thread.rreadv(
            [(offset, len(chunk)) for offset, chunk in zip(offsets, chunks)])

    run_app(cluster, app())
    assert result["read"] == chunks
    # The whole exchange rode multi-op frames, not 40 lone requests.
    transport = cluster.cn(0).transport
    assert transport.batches_issued > 0
    assert transport.batch_subops_completed == 40
    assert cluster.mn.batch_subops_served == 40
    assert transport.requests_completed < 40 + 2  # frames + alloc


def test_rreadv_results_keep_list_order():
    cluster = make_cluster()
    thread = byte_thread(cluster)
    result = {}

    def app():
        va = yield from thread.ralloc(64 * 1024)
        pairs = [(va + 1000 * index, bytes([index + 1]) * 48)
                 for index in range(12)]
        yield from thread.rwritev(pairs)
        # Read back in *reverse* order: results must follow request order.
        result["read"] = yield from thread.rreadv(
            [(addr, 48) for addr, _ in reversed(pairs)])

    run_app(cluster, app())
    assert result["read"] == [bytes([12 - index]) * 48 for index in range(12)]


def test_vector_per_op_rejection_statuses():
    """One bad sub-op fails alone; its frame-mates still succeed."""
    cluster = make_cluster()
    thread = byte_thread(cluster)
    state = {}

    def app():
        va = yield from thread.ralloc(64 * 1024)
        yield from thread.rwrite(va, b"x" * 256)
        handles = yield from thread.rreadv_async([
            (va, 64),
            (va + 512 * MB, 64),          # far outside the region
            (va + 128, 64),
        ])
        state["completions"] = yield from thread.rpoll(handles)

    run_app(cluster, app())
    good0, bad, good1 = state["completions"]
    assert good0.ok and good0.result == b"x" * 64
    assert good1.ok and len(good1.result) == 64
    assert not bad.ok
    with pytest.raises(RemoteAccessError) as excinfo:
        bad.result
    assert excinfo.value.status in (Status.INVALID_VA, Status.PERMISSION)


def test_rwritev_surfaces_failures_synchronously():
    cluster = make_cluster()
    thread = byte_thread(cluster)

    def app():
        va = yield from thread.ralloc(4096)
        with pytest.raises(RemoteAccessError):
            yield from thread.rwritev([(va, b"ok" * 8),
                                       (va + 512 * MB, b"bad" * 8)])

    run_app(cluster, app())


def test_vector_ops_validate_inputs():
    cluster = make_cluster()
    thread = byte_thread(cluster)

    def app():
        va = yield from thread.ralloc(4096)
        with pytest.raises(ValueError):
            yield from thread.rreadv([])
        with pytest.raises(ValueError):
            yield from thread.rwritev([(va, b"")])

    run_app(cluster, app())


def test_oversized_vector_op_falls_back_to_classic_path():
    """A write too big for any frame still lands, via the per-op path."""
    cluster = make_cluster()
    thread = byte_thread(cluster)
    mtu = cluster.params.network.mtu
    big = b"B" * (2 * mtu)
    result = {}

    def app():
        va = yield from thread.ralloc(8 * mtu)
        yield from thread.rwritev([(va, b"a" * 64), (va + 4 * mtu, big),
                                   (va + 64, b"c" * 64)])
        result["big"] = yield from thread.rread(va + 4 * mtu, len(big))
        result["small"] = yield from thread.rread(va, 128)

    run_app(cluster, app())
    assert result["big"] == big
    assert result["small"] == b"a" * 64 + b"c" * 64


def test_vector_ops_respect_intra_thread_ordering():
    """Overlapping ops in one vector serialize write-then-read correctly."""
    cluster = make_cluster()
    thread = byte_thread(cluster)
    result = {}

    def app():
        va = yield from thread.ralloc(4096)
        yield from thread.rwrite(va, b"0" * 64)
        yield from thread.rwritev([(va, b"1" * 64), (va, b"2" * 64)])
        result["read"] = yield from thread.rread(va, 64)

    run_app(cluster, app())
    # Last write in list order wins — WAW order held despite batching.
    assert result["read"] == b"2" * 64


# -- the adaptive batcher ----------------------------------------------------------


def test_batcher_coalesces_by_count():
    cluster = make_cluster()
    thread = byte_thread(cluster)
    state = {}

    def app():
        va = yield from thread.ralloc(64 * 1024)
        yield from thread.rwrite(va, b"z" * 1024)
        batcher = thread.enable_batching(max_ops=8, window_ns=500)
        handles = []
        for index in range(10):
            handle = yield from thread.rread_async(va + 64 * index, 64)
            handles.append(handle)
        completions = yield from thread.rpoll(handles)
        state["data"] = [c.result for c in completions]
        state["frames"] = batcher.frames_issued
        state["subops"] = batcher.subops_batched

    run_app(cluster, app())
    assert state["frames"] == 2          # 8 by count, 2 by window timer
    assert state["subops"] == 10
    assert all(len(blob) == 64 for blob in state["data"])
    assert cluster.mn.batch_subops_served == 10


def test_batcher_window_timer_flushes_partial_frame():
    cluster = make_cluster()
    thread = byte_thread(cluster)
    state = {}

    def app():
        va = yield from thread.ralloc(4096)
        yield from thread.rwrite(va, b"y" * 256)
        batcher = thread.enable_batching(max_ops=64, window_ns=300)
        handle = yield from thread.rread_async(va, 64)
        # Nothing reaches max_ops; only the timer can flush.
        (completion,) = yield from thread.rpoll([handle])
        state["data"] = completion.result
        state["frames"] = batcher.frames_issued

    run_app(cluster, app())
    assert state["data"] == b"y" * 64
    assert state["frames"] == 1


def test_batcher_byte_budget_splits_frames():
    cluster = make_cluster()
    thread = byte_thread(cluster)
    net = cluster.params.network
    # Three writes whose payloads don't fit one frame together.
    size = net.mtu // 2
    state = {}

    def app():
        va = yield from thread.ralloc(8 * MB)
        batcher = thread.enable_batching(max_ops=64, window_ns=500)
        handles = []
        for index in range(3):
            handle = yield from thread.rwrite_async(
                va + size * index, bytes([index + 1]) * size)
            handles.append(handle)
        for completion in (yield from thread.rpoll(handles)):
            completion.result
        state["frames"] = batcher.frames_issued
        state["read"] = yield from thread.rread(va, 3 * size)

    run_app(cluster, app())
    assert state["frames"] >= 2
    assert state["read"] == b"".join(bytes([i + 1]) * size for i in range(3))


def test_disable_batching_flushes_and_detaches():
    cluster = make_cluster()
    thread = byte_thread(cluster)
    state = {}

    def app():
        va = yield from thread.ralloc(4096)
        yield from thread.rwrite(va, b"w" * 128)
        thread.enable_batching(max_ops=64, window_ns=10_000_000)
        handle = yield from thread.rread_async(va, 64)
        thread.disable_batching()          # must flush the pending frame
        (completion,) = yield from thread.rpoll([handle])
        state["data"] = completion.result
        # After disabling, async ops take the classic path again.
        before = cluster.cn(0).transport.batches_issued
        handle2 = yield from thread.rread_async(va, 64)
        (completion2,) = yield from thread.rpoll([handle2])
        completion2.result
        state["batches_delta"] = (cluster.cn(0).transport.batches_issued
                                  - before)

    run_app(cluster, app())
    assert state["data"] == b"w" * 64
    assert state["batches_delta"] == 0
    assert thread.batcher is None


def test_sync_barriers_flush_pending_batches():
    """rfence must not deadlock on (or reorder around) a pending frame."""
    cluster = make_cluster()
    thread = byte_thread(cluster)
    state = {}

    def app():
        va = yield from thread.ralloc(4096)
        thread.enable_batching(max_ops=64, window_ns=10_000_000)
        handle = yield from thread.rwrite_async(va, b"f" * 64)
        yield from thread.rfence()
        assert handle.complete
        state["read"] = yield from thread.rread(va, 64)

    run_app(cluster, app())
    assert state["read"] == b"f" * 64


# -- determinism & the golden batched fingerprint ----------------------------------


def batched_fingerprint(seed=1234):
    """The canonical batched workload: 2 CNs, pinned PIDs, mixed ops."""
    cluster = make_cluster(seed=seed, num_cns=2)
    done = []

    def worker(cn_index, pid):
        thread = byte_thread(cluster, cn=cn_index, pid=pid)
        va = yield from thread.ralloc(8 * MB)
        thread.enable_batching(max_ops=8, window_ns=400)
        for round_index in range(10):
            base = va + 8192 * round_index
            yield from thread.rwritev(
                [(base + 96 * index, bytes([index]) * 96)
                 for index in range(12)])
            blobs = yield from thread.rreadv(
                [(base + 96 * index, 96) for index in range(12)])
            assert blobs == [bytes([index]) * 96 for index in range(12)]
        handles = []
        for index in range(16):
            handle = yield from thread.rread_async(va + 64 * index, 64)
            handles.append(handle)
        for completion in (yield from thread.rpoll(handles)):
            completion.result
        done.append(cluster.env.now)

    procs = [cluster.env.process(worker(0, 9001)),
             cluster.env.process(worker(1, 9002))]
    cluster.run(until=cluster.env.all_of(procs))
    return (cluster.env.now, tuple(sorted(done)),
            cluster.mn.requests_served,
            cluster.mn.batch_subops_served,
            tuple(cn.transport.requests_completed for cn in cluster.cns),
            tuple(cn.transport.batch_subops_completed for cn in cluster.cns),
            tuple(cn.transport.total_retries for cn in cluster.cns))


def test_batched_run_is_bit_identical():
    assert batched_fingerprint(seed=77) == batched_fingerprint(seed=77)
    assert batched_fingerprint(seed=77) != batched_fingerprint(seed=78)


def test_batched_run_matches_golden_fingerprint():
    assert batched_fingerprint() == GOLDEN_BATCHED
