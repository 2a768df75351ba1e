"""repro.cache unit + golden tests: line states, coherence, eviction.

The cached data path gets the same golden treatment as repro.clib.batch:
``GOLDEN_CACHED`` pins a two-CN write-back run bit-for-bit, and the
cache-off invariance tests prove that merely having the subsystem in
the tree (even built on another cluster in the same process) leaves the
pinned uncached goldens untouched.
"""

from dataclasses import replace

import pytest

from repro.clib.client import RemoteAccessError
from repro.cluster import ClioCluster
from repro.core.pipeline import Status
from repro.params import KB, MB, CacheParams, ClioParams

from tests.faults.test_chaos import GOLDEN_NO_FAULT, no_fault_fingerprint

_PID = 9602


def cached_params(**cache) -> ClioParams:
    """Prototype params with ``CacheParams(**cache)``."""
    return replace(ClioParams.prototype(), cache=CacheParams(**cache))


def make_cached_cluster(policy="through", num_cns=2, num_mns=1,
                        capacity_lines=8, line_bytes=512, seed=0,
                        partitioned=False, layers=()):
    """A cluster with the caching layer on (plus any extra ``layers``)."""
    return ClioCluster(
        params=cached_params(policy=policy, line_bytes=line_bytes,
                             capacity_lines=capacity_lines),
        seed=seed, num_cns=num_cns, num_mns=num_mns, mn_capacity=256 * MB,
        partitioned=partitioned, layers=("caching", *layers))


def run_app(cluster, generator):
    return cluster.run(until=cluster.env.process(generator))


def shared_threads(cluster, mn="mn0"):
    return [cluster.cn(i).process(mn, pid=_PID).thread()
            for i in range(len(cluster.cns))]


def alloc_region(cluster, thread, size=64 * KB):
    holder = {}

    def setup():
        holder["va"] = yield from thread.ralloc(size)

    run_app(cluster, setup())
    return holder["va"]


# -- basic hit/miss ------------------------------------------------------------


def test_read_miss_then_hit():
    cluster = make_cached_cluster()
    thread, _ = shared_threads(cluster)
    va = alloc_region(cluster, thread)
    cache = cluster.cn(0).cache
    out = {}

    def app():
        yield from thread.rwrite(va, b"x" * 64)
        out["first"] = yield from thread.rread(va, 64)
        before = cluster.cn(0).transport.requests_issued
        out["second"] = yield from thread.rread(va, 64)
        out["extra_requests"] = (cluster.cn(0).transport.requests_issued
                                 - before)

    run_app(cluster, app())
    assert out["first"] == b"x" * 64
    assert out["second"] == b"x" * 64
    # The second read is a pure local hit: zero network traffic.
    assert out["extra_requests"] == 0
    assert cache.hits >= 1 and cache.misses >= 1 and cache.fills >= 1


def test_cache_metrics_registered():
    cluster = make_cached_cluster()
    names = set(cluster.metrics.snapshot())
    for suffix in ("hits", "misses", "evictions", "invalidations",
                   "hit_rate"):
        assert f"cache.cn0.{suffix}" in names
    assert "cache.dir.requests_served" in names


# -- write-through -------------------------------------------------------------


def test_write_through_lands_on_mn_immediately():
    cluster = make_cached_cluster(policy="through")
    t0, t1 = shared_threads(cluster)
    va = alloc_region(cluster, t0)
    out = {}

    def app():
        yield from t0.rwrite(va, b"W" * 64)
        # cn1 fills from the MN: write-through means the MN already has
        # the bytes; no recall of cn0 is needed to read them.
        out["read"] = yield from t1.rread(va, 64)

    run_app(cluster, app())
    assert out["read"] == b"W" * 64
    assert cluster.cn(0).cache.write_throughs == 1
    assert cluster.cn(0).cache.writebacks == 0


def test_write_through_invalidates_other_sharers():
    cluster = make_cached_cluster(policy="through")
    t0, t1 = shared_threads(cluster)
    va = alloc_region(cluster, t0)
    out = {}

    def app():
        yield from t1.rwrite(va, b"old" + b"." * 61)
        yield from t0.rread(va, 64)            # cn0 now shares the line
        yield from t1.rwrite(va, b"new" + b"." * 61)
        out["read"] = yield from t0.rread(va, 64)

    run_app(cluster, app())
    assert out["read"][:3] == b"new"
    assert cluster.cn(0).cache.invalidations >= 1
    assert cluster.cache_dir.recalls >= 1


def test_write_through_commits_after_local_line_update():
    """Three threads of one CN on one cached line: two readers keep the
    line lock busy with local hits while a third writes through.  The
    write's MN ack lands with a reader queued on the lock ahead of the
    writer; that reader opens its window after the ack and still reads
    the old bytes, which is legal — the rwrite has not returned.  The
    oracle must therefore commit the write only once the local copy is
    updated, not at the MN ack."""
    cluster = make_cached_cluster(policy="through", num_cns=1,
                                  layers=("verification",))
    verifier = cluster.verifier
    process = cluster.cn(0).process("mn0", pid=_PID)
    writer, reader1, reader2 = (process.thread() for _ in range(3))
    va = alloc_region(cluster, writer)
    env = cluster.env
    out = {"writing": True}

    def setup():
        yield from writer.rwrite(va, b"A" * 64)
        yield from writer.rread(va, 64)        # line cached on cn0

    def read_loop(thread):
        while out["writing"]:
            data = yield from thread.rread(va, 64)
            assert data in (b"A" * 64, b"B" * 64)
        out[thread.label] = yield from thread.rread(va, 64)

    def app():
        yield from setup()
        readers = [env.process(read_loop(t)) for t in (reader1, reader2)]
        yield from writer.rwrite(va, b"B" * 64)
        out["writing"] = False
        for reader in readers:
            yield reader

    run_app(cluster, app())
    assert cluster.cn(0).cache.write_throughs == 2
    assert cluster.cn(0).cache.hits > 4        # the readers did overlap it
    assert out[reader1.label] == out[reader2.label] == b"B" * 64
    assert verifier.ok, verifier.report()


# -- write-back ----------------------------------------------------------------


def test_write_back_owner_hit_is_zero_rtt():
    cluster = make_cached_cluster(policy="back")
    thread, _ = shared_threads(cluster)
    va = alloc_region(cluster, thread)
    cache = cluster.cn(0).cache
    out = {}

    def app():
        yield from thread.rwrite(va, b"a" * 64)   # ownership grant
        yield cluster.env.timeout(50_000)         # let the wend settle
        before = cluster.cn(0).transport.requests_issued
        yield from thread.rwrite(va, b"b" * 64)   # owner hit
        out["extra_requests"] = (cluster.cn(0).transport.requests_issued
                                 - before)
        out["read"] = yield from thread.rread(va, 64)

    run_app(cluster, app())
    assert out["extra_requests"] == 0, "owner-hit write must not touch the net"
    assert out["read"] == b"b" * 64
    assert cache.write_hits == 1 and cache.write_fills == 1


def test_write_back_dirty_line_recalled_by_reader():
    cluster = make_cached_cluster(policy="back")
    t0, t1 = shared_threads(cluster)
    va = alloc_region(cluster, t0)
    out = {}

    def app():
        yield from t0.rwrite(va, b"D" * 64)
        out["read"] = yield from t1.rread(va, 64)

    run_app(cluster, app())
    # cn1's fill forced cn0 to flush its dirty line first.
    assert out["read"] == b"D" * 64
    assert cluster.cn(0).cache.writebacks == 1
    assert cluster.cache_dir.downgrades >= 1


def test_write_back_ownership_ping_pong():
    cluster = make_cached_cluster(policy="back")
    t0, t1 = shared_threads(cluster)
    va = alloc_region(cluster, t0)
    out = {}

    def app():
        yield from t0.rwrite(va, b"0" * 64)
        yield from t1.rwrite(va, b"1" * 64)
        yield from t0.rwrite(va, b"2" * 64)
        out["r0"] = yield from t0.rread(va, 64)
        out["r1"] = yield from t1.rread(va, 64)

    run_app(cluster, app())
    assert out["r0"] == b"2" * 64
    assert out["r1"] == b"2" * 64
    assert cluster.cache_dir.write_txns == 3


# -- eviction ------------------------------------------------------------------


def test_lru_eviction_picks_coldest_line():
    cluster = make_cached_cluster(capacity_lines=2)
    thread, _ = shared_threads(cluster)
    va = alloc_region(cluster, thread)
    cache = cluster.cn(0).cache
    line = cache.line_bytes

    def app():
        yield from thread.rread(va, 8)               # A
        yield from thread.rread(va + line, 8)        # B
        yield from thread.rread(va, 8)               # touch A
        yield from thread.rread(va + 2 * line, 8)    # C evicts B

    run_app(cluster, app())
    assert cache.evictions == 1
    resident = set(cache._lru)
    assert ("mn0", _PID, va) in resident
    assert ("mn0", _PID, va + line) not in resident
    assert ("mn0", _PID, va + 2 * line) in resident


def test_dirty_eviction_flushes_before_drop():
    cluster = make_cached_cluster(policy="back", capacity_lines=2)
    thread, _ = shared_threads(cluster)
    va = alloc_region(cluster, thread)
    cache = cluster.cn(0).cache
    line = cache.line_bytes
    out = {}

    def app():
        yield from thread.rwrite(va, b"E" * 64)          # dirty line A
        yield from thread.rread(va + line, 8)
        yield from thread.rread(va + 2 * line, 8)        # evicts something
        yield from thread.rread(va + 3 * line, 8)        # evicts more
        out["read"] = yield from thread.rread(va, 64)    # refill A

    run_app(cluster, app())
    assert out["read"] == b"E" * 64
    assert cache.writebacks >= 1


# -- bypass paths stay coherent ------------------------------------------------


def test_large_read_bypass_sees_dirty_lines():
    cluster = make_cached_cluster(policy="back")
    t0, t1 = shared_threads(cluster)
    va = alloc_region(cluster, t0)
    line = cluster.cn(0).cache.line_bytes
    out = {}

    def app():
        yield from t0.rwrite(va + 64, b"Z" * 64)     # dirty, cached on cn0
        # 4 lines at once: larger than a line, so cn1 bypasses the cache;
        # the pre-read sync must flush cn0's dirty bytes first.
        out["read"] = yield from t1.rread(va, 4 * line)

    run_app(cluster, app())
    assert out["read"][64:128] == b"Z" * 64
    assert cluster.cn(0).cache.writebacks == 1


def test_large_write_bypass_recalls_cached_copies():
    cluster = make_cached_cluster(policy="back")
    t0, t1 = shared_threads(cluster)
    va = alloc_region(cluster, t0)
    line = cluster.cn(0).cache.line_bytes
    out = {}

    def app():
        yield from t0.rread(va, 64)                   # cn0 caches line 0
        yield from t1.rwrite(va, b"Y" * (2 * line))   # bypass write
        out["read"] = yield from t0.rread(va, 64)     # must refill

    run_app(cluster, app())
    assert out["read"] == b"Y" * 64
    assert cluster.cn(0).cache.invalidations >= 1


def test_atomic_sees_cached_dirty_word():
    cluster = make_cached_cluster(policy="back")
    t0, t1 = shared_threads(cluster)
    va = alloc_region(cluster, t0)
    out = {}

    def app():
        yield from t0.rwrite(va, (41).to_bytes(8, "little"))
        out["faa"] = yield from t1.rfaa(va, 1)
        out["read"] = yield from t0.rread(va, 8)

    run_app(cluster, app())
    # The atomic's write guard recalled cn0's dirty line (flushing 41),
    # the FAA returned the pre-value, and cn0's re-read sees 42.
    assert out["faa"] == 41
    assert int.from_bytes(out["read"], "little") == 42


@pytest.mark.parametrize("free", ["rfree", "rfree_async"])
def test_rfree_recalls_cached_lines(free):
    """Sync and async free share one body: both recall the allocation's
    cached lines before the MN frees it, so no CN serves dead bytes."""
    cluster = make_cached_cluster(policy="back", layers=("verification",))
    verifier = cluster.verifier
    t0, t1 = shared_threads(cluster)
    va = alloc_region(cluster, t0)
    out = {}

    def app():
        yield from t0.rwrite(va, b"F" * 64)
        yield from t1.rread(va, 64)
        out["cached"] = yield from t0.rread(va, 64)
        if free == "rfree":
            yield from t0.rfree(va)
        else:
            handle = yield from t0.rfree_async(va, size_hint=64 * KB)
            (completion,) = yield from t0.rpoll([handle])
            assert completion.ok
        out["tracked"] = dict(cluster.cache_dir._lines)
        with pytest.raises(RemoteAccessError) as excinfo:
            yield from t0.rread(va, 64)
        out["status"] = excinfo.value.status

    run_app(cluster, app())
    assert out["cached"] == b"F" * 64
    assert out["status"] is Status.INVALID_VA
    # Freeing the region recalled every cached copy; nothing tracked.
    assert out["tracked"] == {}
    assert cluster.cn(0).cache.allocation_size("mn0", _PID, va) == 0
    assert (cluster.cn(0).cache.invalidations
            + cluster.cn(1).cache.invalidations) >= 2
    assert verifier.ok, verifier.report()


# -- construction + departure --------------------------------------------------


def test_shutdown_drains_dirty_lines_and_departs():
    """CN departure: ``shutdown()`` flushes every dirty line, tells the
    directory, and detaches the cache from its node."""
    cluster = make_cached_cluster(policy="back")
    t0, t1 = shared_threads(cluster)
    va = alloc_region(cluster, t0)
    out = {}

    def app():
        yield from t0.rwrite(va, b"G" * 64)

    run_app(cluster, app())
    caches = [node.cache for node in cluster.cns]
    cluster.run_all([cluster.env.process(cache.shutdown())
                     for cache in caches])
    assert caches[0].writebacks == 1
    assert cluster.cache_dir._lines == {}
    assert [node.cache for node in cluster.cns] == [None, None]

    def check():
        # Both CNs departed: this read goes straight to the MN, and
        # the flush above means the MN already has the bytes.
        out["read"] = yield from t1.rread(va, 64)

    run_app(cluster, check())
    assert out["read"] == b"G" * 64
    assert caches[1].misses == 0


def test_line_bytes_must_divide_page_size():
    with pytest.raises(ValueError, match="divide"):
        ClioCluster(params=cached_params(line_bytes=128 * KB),
                    mn_capacity=256 * MB, page_size=64 * KB,
                    layers=("caching",))
    # The same params are fine while the layer stays off.
    ClioCluster(params=cached_params(line_bytes=128 * KB),
                mn_capacity=256 * MB, page_size=64 * KB)


def test_migration_recalls_cached_lines():
    from repro.distributed.controller import GlobalController
    cluster = make_cached_cluster(policy="back", num_mns=2)
    ctrl = GlobalController(cluster.env, cluster.mns)
    ctrl.cache_directory = cluster.cache_dir
    env = cluster.env
    out = {}

    def app():
        lease = yield from ctrl.allocate(_PID, 64 * KB)
        t0 = cluster.cn(0).process(lease.mn, pid=_PID).thread()
        t1 = cluster.cn(1).process(lease.mn, pid=_PID).thread()
        yield from t0.rwrite(lease.va, b"M" * 64)
        yield from t1.rwrite(lease.va + 8 * KB, b"N" * 64)
        assert (yield from ctrl._migrate(lease, "mn1"))
        fresh = cluster.cn(0).process(lease.mn, pid=_PID).thread()
        out["a"] = yield from fresh.rread(lease.va, 64)
        out["b"] = yield from fresh.rread(lease.va + 8 * KB, 64)

    env.run(until=env.process(app()))
    assert out["a"] == b"M" * 64
    assert out["b"] == b"N" * 64
    # Both dirty lines were flushed to the source before the copy.
    assert (cluster.cn(0).cache.writebacks
            + cluster.cn(1).cache.writebacks) == 2
    assert cluster.cache_dir.freezes == 1


# -- transparent use (paper section 3.3) ---------------------------------------


def test_transparent_scan_hits_locally_and_writes_back():
    """The scan ``examples/distributed_platform.py`` runs: plain
    ``rwrite``/``rread`` over a write-back cache, 16 lines of 64 KB,
    three passes over 1 MB.  Only the first pass's writes go to the MN
    (fetch-on-write fills), and ``shutdown()`` flushes each line once."""
    cluster = make_cached_cluster(policy="back", num_cns=1,
                                  capacity_lines=16, line_bytes=64 * KB)
    thread = cluster.cn(0).process("mn0").thread()
    cache = cluster.cn(0).cache
    offsets = range(0, 1 * MB, 64 * KB)
    out = {"scan": [], "after": []}

    def app():
        base = yield from thread.ralloc(8 * MB)
        for _ in range(3):
            for offset in offsets:
                yield from thread.rwrite(base + offset, b"%08d" % offset)
                out["scan"].append((yield from thread.rread(base + offset, 8)))
        yield from cache.shutdown()
        # Detached: these reads go to the MN, which holds the flushed lines.
        for offset in offsets:
            out["after"].append((yield from thread.rread(base + offset, 8)))

    run_app(cluster, app())
    expected = [b"%08d" % offset for offset in offsets]
    assert out["scan"] == expected * 3
    assert out["after"] == expected
    assert (cache.hits, cache.write_hits, cache.misses, cache.write_fills,
            cache.writebacks) == (48, 32, 0, 16, 16)


# -- golden fingerprints -------------------------------------------------------

#: Two CNs, one shared 64 KB region, deterministic 120-op mix each,
#: write-back, 8x512B lines (pinned 2026-08: the first cached run).
#: Same seed + params must stay bit-identical; move it only with a
#: deliberate re-pin.
GOLDEN_CACHED = (611396, (570507, 611396), 191, (214, 211), (0, 0),
                 ((41, 39, 39, 24, 51, 38), (38, 42, 41, 25, 45, 33)),
                 (234, 81, 77, 57, 39, 96))

#: The same run under write-through (pinned at the commit before the
#: line protocol became a table, so both policies judge that rewrite).
GOLDEN_CACHED_THROUGH = (527708, (518274, 527708), 178, (217, 217), (0, 0),
                         ((32, 48, 48, 15, 26, 0), (31, 49, 49, 15, 26, 0)),
                         (256, 97, 80, 52, 0, 52))


def cached_fingerprint(policy="back", partitioned=False, seed=4321):
    cluster = make_cached_cluster(policy=policy, partitioned=partitioned,
                                  seed=seed, capacity_lines=8,
                                  line_bytes=512)
    env = cluster.env
    done = []
    ready = env.event()
    shared = {}

    def worker(index):
        thread = cluster.cn(index).process("mn0", pid=_PID).thread()
        if index == 0:
            va = yield from thread.ralloc(64 * KB)
            shared["va"] = va
            ready.succeed()
        else:
            yield ready
        va = shared["va"]
        for op in range(120):
            # 3 of 4 ops land in a shared 2 KB hot set (4 lines, so they
            # hit and collide across CNs); the rest sweep the full 64 KB
            # region to keep the evictor busy.
            span = 2 * KB if op % 4 else 64 * KB
            offset = (((op * 7919 + index * 104729) % span) // 64) * 64
            offset = min(offset, 64 * KB - 64)
            if (op + index) % 3 == 0:
                yield from thread.rwrite(va + offset,
                                         bytes([op % 256]) * 64)
            else:
                yield from thread.rread(va + offset, 64)
        done.append(env.now)

    procs = [env.process(worker(0)), env.process(worker(1))]
    cluster.run(until=env.all_of(procs))
    directory = cluster.cache_dir
    return (env.now, tuple(sorted(done)),
            cluster.mn.requests_served,
            tuple(cn.transport.requests_completed for cn in cluster.cns),
            tuple(cn.transport.total_retries for cn in cluster.cns),
            tuple((node.cache.hits, node.cache.misses, node.cache.fills,
                   node.cache.evictions, node.cache.invalidations,
                   node.cache.writebacks) for node in cluster.cns),
            (directory.requests_served, directory.fills,
             directory.write_txns, directory.recalls,
             directory.downgrades, directory.invals_sent))


def test_cached_run_is_bit_identical():
    assert cached_fingerprint(seed=4321) == cached_fingerprint(seed=4321)
    assert cached_fingerprint(seed=4321) != cached_fingerprint(seed=4322)


def test_cached_flat_matches_partitioned():
    assert (cached_fingerprint(partitioned=False)
            == cached_fingerprint(partitioned=True))


def test_cached_run_matches_golden_fingerprint():
    assert cached_fingerprint() == GOLDEN_CACHED


def test_write_through_run_matches_golden_fingerprint():
    assert cached_fingerprint(policy="through") == GOLDEN_CACHED_THROUGH


def test_write_through_run_is_bit_identical():
    assert (cached_fingerprint(policy="through")
            == cached_fingerprint(policy="through"))


# -- cache-off invariance ------------------------------------------------------


def test_cache_off_golden_unchanged_flat():
    # Run a cached workload first: any global-state leak (request ids,
    # RNG, registries) would perturb the pinned uncached golden.
    cached_fingerprint()
    assert no_fault_fingerprint() == GOLDEN_NO_FAULT


def test_cache_off_golden_unchanged_partitioned():
    cached_fingerprint(partitioned=True)
    assert no_fault_fingerprint(partitioned=True) == GOLDEN_NO_FAULT
