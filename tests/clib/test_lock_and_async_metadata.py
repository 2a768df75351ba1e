"""Tests for RemoteLock and asynchronous ralloc/rfree."""

import pytest

from repro.clib.client import RemoteAccessError
from repro.clib.lock import LockNotHeldError, RemoteLock
from repro.cluster import ClioCluster
from repro.core.pipeline import Status

MB = 1 << 20
PAGE = 4 * MB


def make_cluster(num_cns=1):
    return ClioCluster(num_cns=num_cns, mn_capacity=512 * MB)


def run_app(cluster, generator):
    return cluster.run(until=cluster.env.process(generator))


# -- RemoteLock ---------------------------------------------------------------------


def test_lock_create_acquire_release():
    cluster = make_cluster()
    thread = cluster.cn(0).process("mn0").thread()
    result = {}

    def app():
        lock = yield from RemoteLock.create(thread)
        attempts = yield from lock.acquire()
        result["attempts"] = attempts
        result["locked"] = yield from lock.locked()
        yield from lock.release()
        result["unlocked"] = yield from lock.locked()

    run_app(cluster, app())
    assert result["attempts"] == 1
    assert result["locked"] is True
    assert result["unlocked"] is False


def test_lock_misuse_rejected():
    cluster = make_cluster()
    thread = cluster.cn(0).process("mn0").thread()

    def app():
        lock = yield from RemoteLock.create(thread)
        with pytest.raises(LockNotHeldError):
            yield from lock.release()
        yield from lock.acquire()
        with pytest.raises(LockNotHeldError):
            yield from lock.acquire()
        yield from lock.release()

    run_app(cluster, app())


def test_lock_mutual_exclusion_via_handles():
    cluster = make_cluster(num_cns=2)
    process = cluster.cn(0).process("mn0")
    t1 = process.thread()
    t2 = process.thread()
    t2._transport = cluster.cn(1).transport
    log = []

    def setup_and_race():
        lock = yield from RemoteLock.create(t1)
        other = lock.handle_for(t2)

        def critical(tag, handle):
            yield from handle.acquire()
            log.append((tag, "in"))
            yield cluster.env.timeout(1500)
            log.append((tag, "out"))
            yield from handle.release()

        p1 = cluster.env.process(critical("a", lock))
        p2 = cluster.env.process(critical("b", other))
        yield cluster.env.all_of([p1, p2])

    run_app(cluster, setup_and_race())
    assert len(log) == 4
    assert log[0][0] == log[1][0] and log[2][0] == log[3][0]


def test_contention_counters():
    cluster = make_cluster()
    thread_a = cluster.cn(0).process("mn0").thread()

    def app():
        lock = yield from RemoteLock.create(thread_a)
        yield from lock.acquire()

        # A second handle spins while we hold it.
        other = lock.handle_for(thread_a.process.thread())

        def waiter():
            yield from other.acquire()
            yield from other.release()

        proc = cluster.env.process(waiter())
        yield cluster.env.timeout(20_000)
        yield from lock.release()
        yield proc

    run_app(cluster, app())


# -- async metadata -------------------------------------------------------------------


def test_ralloc_async_returns_va_via_handle():
    cluster = make_cluster()
    thread = cluster.cn(0).process("mn0").thread()
    result = {}

    def app():
        handle = yield from thread.ralloc_async(1 * MB)
        (completion,) = yield from thread.rpoll([handle])
        assert completion.kind == "alloc" and completion.ok
        va = completion.result
        result["va"] = va
        yield from thread.rwrite(va, b"async-allocated")
        result["data"] = yield from thread.rread(va, 15)

    run_app(cluster, app())
    assert result["va"] > 0
    assert result["data"] == b"async-allocated"


def test_two_async_rallocs_overlap():
    cluster = make_cluster()
    thread = cluster.cn(0).process("mn0").thread()
    result = {}

    def app():
        start = cluster.env.now
        h1 = yield from thread.ralloc_async(1 * MB)
        h2 = yield from thread.ralloc_async(1 * MB)
        completions = yield from thread.rpoll([h1, h2])
        result["elapsed"] = cluster.env.now - start
        result["vas"] = [c.result for c in completions]

    run_app(cluster, app())
    assert len(set(result["vas"])) == 2

    # Compare with two sequential allocs: overlap must be faster.
    cluster2 = make_cluster()
    thread2 = cluster2.cn(0).process("mn0").thread()
    result2 = {}

    def app2():
        start = cluster2.env.now
        yield from thread2.ralloc(1 * MB)
        yield from thread2.ralloc(1 * MB)
        result2["elapsed"] = cluster2.env.now - start

    run_app(cluster2, app2())
    assert result["elapsed"] < result2["elapsed"]


def test_rfree_async_blocks_conflicting_access():
    cluster = make_cluster()
    thread = cluster.cn(0).process("mn0").thread()
    result = {}

    def app():
        va = yield from thread.ralloc(PAGE)
        yield from thread.rwrite(va, b"doomed")
        handle = yield from thread.rfree_async(va, size_hint=PAGE)
        # The read is ordered after the in-flight free (metadata/data
        # consistency, section 3.1) and must therefore fail.
        try:
            yield from thread.rread(va, 6)
            result["read"] = "succeeded"
        except RemoteAccessError as exc:
            result["read"] = exc.status
        (completion,) = yield from thread.rpoll([handle])
        assert completion.kind == "free"
        result["freed"] = completion.result

    run_app(cluster, app())
    assert result["read"] is Status.INVALID_VA
    assert result["freed"] == 1
