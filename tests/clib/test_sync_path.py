"""The direct sync data path: one CLib frame, and what it must still do.

A no-cache ``rread`` / ``rwrite`` skips the dependency tracker when the
thread has nothing in flight and issues, checks and settles its request
in one generator (``mn_request``).  These tests pin what that shortcut
must keep: argument checks at the caller, ordering behind in-flight async
ops, and the oracle window when verification is on.
"""

from repro.clib import client as clib_client
from repro.cluster import ClioCluster
from repro.params import ClioParams

MB = 1 << 20


def cluster_and_thread(**kwargs):
    cluster = ClioCluster(params=ClioParams.prototype(), mn_capacity=256 * MB,
                          **kwargs)
    return cluster, cluster.cn(0).process("mn0").thread()


def run(cluster, generator):
    return cluster.run(until=cluster.env.process(generator))


def test_zero_size_read_raises_at_the_caller_and_the_run_continues():
    """Without the check a zero-size read reaches the board, whose fast
    path raises inside a spawned handler and ends the whole run."""
    cluster, thread = cluster_and_thread()
    errors = []

    def app():
        va = yield from thread.ralloc(4 * MB)
        yield from thread.rwrite(va, b"z" * 64)
        for op in (lambda: thread.rread(va, 0),
                   lambda: thread.rread(va, -1),
                   lambda: thread.rread_async(va, 0),
                   lambda: thread.rreadv([(va, 64), (va, 0)]),
                   lambda: thread.rreadv_async([(va, 0)])):
            try:
                yield from op()
            except ValueError as exc:
                errors.append(str(exc))
        yield cluster.env.timeout(1_000_000)
        return (yield from thread.rread(va, 64))

    assert run(cluster, app()) == b"z" * 64
    assert len(errors) == 5
    assert thread.ops_issued == 3          # ralloc, rwrite, the last rread


def test_sync_read_waits_for_an_in_flight_async_write_to_its_page():
    cluster, thread = cluster_and_thread()

    def app():
        va = yield from thread.ralloc(4 * MB)
        yield from thread.rwrite(va, b"o" * 64)
        handle = yield from thread.rwrite_async(va + 64, b"n" * 64)
        data = yield from thread.rread(va, 128)   # same page: RAW
        assert handle.complete
        return data

    assert run(cluster, app()) == b"o" * 64 + b"n" * 64
    assert thread.tracker.blocked_count == 1
    assert thread.tracker.inflight_count == 0


def test_oracle_window_opens_and_closes_around_a_sync_op():
    cluster, thread = cluster_and_thread(layers=("verification",))
    env, verifier = cluster.env, cluster.verifier
    calls = []
    for hook in ("read_begin", "read_checked", "write_begin", "write_acked"):
        real = getattr(verifier, hook)

        def record(*args, _hook=hook, _real=real):
            calls.append((_hook, env.now))
            return _real(*args)
        setattr(verifier, hook, record)
    spans = {}

    def app():
        va = yield from thread.ralloc(4 * MB)
        for name, op in (("write", lambda: thread.rwrite(va, b"v" * 64)),
                         ("read", lambda: thread.rread(va, 64))):
            start = env.now
            yield from op()
            spans[name] = (start, env.now)

    run(cluster, app())
    assert calls == [("write_begin", spans["write"][0]),
                     ("write_acked", spans["write"][1]),
                     ("read_begin", spans["read"][0]),
                     ("read_checked", spans["read"][1])]
    assert verifier.ok, verifier.report()


def test_no_window_is_opened_with_the_verifier_off(monkeypatch):
    opened = []
    monkeypatch.setattr(clib_client, "open_window",
                        lambda *args: opened.append(args))
    cluster, thread = cluster_and_thread()

    def app():
        va = yield from thread.ralloc(4 * MB)
        yield from thread.rwrite(va, b"q" * 64)
        return (yield from thread.rread(va, 64))

    assert run(cluster, app()) == b"q" * 64
    assert opened == []
