"""Integration tests for the CLib transport against a real CBoard."""

import pytest

from dataclasses import replace

from repro.cluster import ClioCluster
from repro.core.addr import Permission
from repro.core.pipeline import Status
from repro.net.packet import PacketType
from repro.params import ClioParams, NetworkParams
from repro.transport.clib_transport import RequestFailed

MB = 1 << 20


def lossy_params(loss=0.0, corruption=0.0, max_retries=8):
    """Params with fault injection; retries raised because a request
    crosses four lossy links (two hops each way)."""
    base = ClioParams.prototype()
    return replace(base,
                   network=replace(base.network, loss_rate=loss,
                                   corruption_rate=corruption),
                   clib=replace(base.clib, max_retries=max_retries))


def run_request(cluster, **kwargs):
    transport = cluster.cn(0).transport
    holder = {}

    def driver():
        outcome = yield from transport.request("mn0", **kwargs)
        holder["outcome"] = outcome

    cluster.run(until=cluster.env.process(driver()))
    return holder["outcome"]


def alloc(cluster, pid=1, size=MB):
    outcome = run_request(cluster, packet_type=PacketType.ALLOC, pid=pid,
                          payload=(size, Permission.READ_WRITE, None))
    assert outcome.body.status is Status.OK
    return outcome.body.value.va


def test_request_response_roundtrip():
    cluster = ClioCluster(mn_capacity=256 * MB)
    va = alloc(cluster)
    write = run_request(cluster, packet_type=PacketType.WRITE, pid=1,
                        va=va, size=4, data=b"ping")
    assert write.body.status is Status.OK
    read = run_request(cluster, packet_type=PacketType.READ, pid=1,
                       va=va, size=4)
    assert read.data == b"ping"
    assert read.retries == 0


def test_large_write_fragments_and_acks_once():
    cluster = ClioCluster(mn_capacity=256 * MB)
    va = alloc(cluster)
    data = bytes(range(256)) * 16   # 4096B -> 3 fragments
    write = run_request(cluster, packet_type=PacketType.WRITE, pid=1,
                        va=va, size=len(data), data=data)
    assert write.body.status is Status.OK
    read = run_request(cluster, packet_type=PacketType.READ, pid=1,
                       va=va, size=len(data))
    assert read.data == data


def test_corrupted_request_nacked_and_retried():
    cluster = ClioCluster(params=lossy_params(corruption=0.2), seed=11,
                          mn_capacity=256 * MB)
    va = alloc(cluster)
    transport = cluster.cn(0).transport
    completed = []

    def driver():
        for index in range(40):
            outcome = yield from transport.request(
                "mn0", PacketType.WRITE, pid=1, va=va, size=4,
                data=index.to_bytes(4, "little"))
            completed.append(outcome)

    cluster.run(until=cluster.env.process(driver()))
    assert len(completed) == 40
    assert sum(outcome.retries for outcome in completed) > 0
    assert cluster.mn.nacks_sent > 0


def test_lost_packets_recovered_by_timeout_retry():
    cluster = ClioCluster(params=lossy_params(loss=0.15), seed=7,
                          mn_capacity=256 * MB)
    va = alloc(cluster)
    transport = cluster.cn(0).transport
    completed = []

    def driver():
        for index in range(30):
            outcome = yield from transport.request(
                "mn0", PacketType.WRITE, pid=1, va=va, size=4,
                data=index.to_bytes(4, "little"))
            completed.append(outcome)

    cluster.run(until=cluster.env.process(driver()))
    assert len(completed) == 30
    assert sum(outcome.retries for outcome in completed) > 0


def test_total_loss_raises_request_failed():
    cluster = ClioCluster(params=lossy_params(loss=1.0, max_retries=2),
                          mn_capacity=256 * MB)
    transport = cluster.cn(0).transport
    failures = []

    def driver():
        try:
            yield from transport.request("mn0", PacketType.READ, pid=1,
                                         va=4 * MB, size=4)
        except RequestFailed as exc:
            failures.append(exc)

    cluster.run(until=cluster.env.process(driver()))
    assert failures
    # Original + max_retries attempts were all made.
    assert cluster.cn(0).transport.total_retries == \
        cluster.params.clib.max_retries


def test_request_failed_carries_typed_metadata():
    cluster = ClioCluster(params=lossy_params(loss=1.0, max_retries=3),
                          mn_capacity=256 * MB)
    transport = cluster.cn(0).transport
    failures = []

    def driver():
        try:
            yield from transport.request("mn0", PacketType.READ, pid=1,
                                         va=4 * MB, size=4)
        except RequestFailed as exc:
            failures.append(exc)

    cluster.run(until=cluster.env.process(driver()))
    exc = failures[0]
    assert exc.mn == "mn0"
    assert exc.packet_type is PacketType.READ
    assert exc.va == 4 * MB
    assert exc.attempts == cluster.params.clib.max_retries + 1
    assert exc.reason == "timeout"


def test_attempts_hard_capped_and_counted():
    """Against a black-holed MN the transport makes exactly
    ``max_retries + 1`` attempts per request, then fails typed — the
    failure counters balance against issued/completed."""
    cluster = ClioCluster(params=lossy_params(loss=1.0, max_retries=2),
                          mn_capacity=256 * MB)
    transport = cluster.cn(0).transport
    failures = []

    def driver():
        for _ in range(3):
            try:
                yield from transport.request("mn0", PacketType.READ, pid=1,
                                             va=4 * MB, size=4)
            except RequestFailed as exc:
                failures.append(exc)

    cluster.run(until=cluster.env.process(driver()))
    assert len(failures) == 3
    assert all(exc.attempts == 3 for exc in failures)
    assert transport.requests_issued == 3
    assert transport.requests_failed == 3
    assert transport.requests_completed == 0
    assert transport.total_retries == 3 * 2


def test_clib_params_validate_retry_settings():
    from repro.params import CLibParams
    with pytest.raises(ValueError):
        CLibParams(max_retries=-1)
    with pytest.raises(ValueError):
        CLibParams(timeout_ns=0)
    with pytest.raises(ValueError):
        CLibParams(timeout_ns=1000, slow_timeout_ns=500)
    CLibParams(max_retries=0, timeout_ns=1000, slow_timeout_ns=1000)


def test_counters_balance_on_success():
    cluster = ClioCluster(mn_capacity=256 * MB)
    va = alloc(cluster)
    transport = cluster.cn(0).transport
    issued_before = transport.requests_issued

    def driver():
        for index in range(10):
            yield from transport.request("mn0", PacketType.WRITE, pid=1,
                                         va=va, size=4,
                                         data=index.to_bytes(4, "little"))

    cluster.run(until=cluster.env.process(driver()))
    assert transport.requests_issued - issued_before == 10
    assert transport.requests_issued == \
        transport.requests_completed + transport.requests_failed


def test_stale_response_after_timeout_is_dropped():
    """A response arriving after its request timed out must be discarded
    (its ID is no longer pending) and counted as stale."""
    from repro.params import CLibParams
    base = ClioParams.prototype()
    # Timeout far below the actual RTT: first attempt always times out.
    params = replace(base, clib=replace(base.clib, timeout_ns=400,
                                        max_retries=10))
    cluster = ClioCluster(params=params, mn_capacity=256 * MB)
    transport = cluster.cn(0).transport
    outcomes = []

    def driver():
        try:
            outcome = yield from transport.request("mn0", PacketType.READ,
                                                   pid=1, va=4 * MB, size=4)
            outcomes.append(outcome)
        except RequestFailed:
            outcomes.append(None)

    cluster.run(until=cluster.env.process(driver()))
    # Drain any late responses still in flight.
    cluster.run(until=cluster.env.now + 10 ** 8)
    assert transport.stale_responses > 0


def test_settled_requests_do_not_pin_their_response_packets():
    """A settled request's stale TIMEOUT entry (100 ms for ALLOC / FREE)
    outlives it on the heap; the response packets must not ride along:
    live ``Packet`` objects are bounded by the window, not by the op
    count."""
    import gc

    from repro.net.packet import Packet

    cluster = ClioCluster(mn_capacity=256 * MB)
    thread = cluster.cn(0).process("mn0").thread()
    rounds = 60

    def churn():
        for _ in range(rounds):
            yield from thread.rfree((yield from thread.ralloc(MB)))

    cluster.run(until=cluster.env.process(churn()))
    # Every TIMEOUT armed above is still queued: the run took < 100 ms.
    assert cluster.env.now < cluster.params.clib.slow_timeout_ns
    assert len(cluster.env._queue) >= 2 * rounds
    gc.collect()
    live = sum(isinstance(thing, Packet) for thing in gc.get_objects())
    assert live <= cluster.params.clib.cwnd_init, live


def test_congestion_window_grows_under_light_load():
    cluster = ClioCluster(mn_capacity=256 * MB)
    va = alloc(cluster)
    transport = cluster.cn(0).transport
    initial = transport.congestion("mn0").cwnd

    def driver():
        for _ in range(50):
            yield from transport.request("mn0", PacketType.READ, pid=1,
                                         va=va, size=16)

    # Prime the page first so reads succeed.
    run_request(cluster, packet_type=PacketType.WRITE, pid=1, va=va,
                size=16, data=b"z" * 16)
    cluster.run(until=cluster.env.process(driver()))
    assert transport.congestion("mn0").cwnd > initial


def test_outstanding_limited_by_cwnd():
    cluster = ClioCluster(mn_capacity=256 * MB)
    va = alloc(cluster)
    run_request(cluster, packet_type=PacketType.WRITE, pid=1, va=va,
                size=16, data=b"z" * 16)
    transport = cluster.cn(0).transport
    congestion = transport.congestion("mn0")
    max_outstanding = 0
    procs = []

    def one_read():
        yield from transport.request("mn0", PacketType.READ, pid=1,
                                     va=va, size=16)

    def monitor():
        nonlocal max_outstanding
        for _ in range(4000):
            max_outstanding = max(max_outstanding, congestion.outstanding)
            yield cluster.env.timeout(50)

    for _ in range(64):
        procs.append(cluster.env.process(one_read()))
    cluster.env.process(monitor())
    cluster.run(until=cluster.env.all_of(procs))
    assert max_outstanding <= int(cluster.params.clib.cwnd_max)
    assert max_outstanding >= 1


def test_a_transfer_longer_than_the_slow_timeout_completes():
    """The backoff ceiling never cuts an attempt below the request's own
    first budget: a 2 MB write takes ~1.7 ms on the 10 Gbps MN port, so a
    1 ms ``slow_timeout_ns`` ceiling would time out every attempt."""
    base = ClioParams.prototype()
    params = replace(base, clib=replace(base.clib, slow_timeout_ns=1_000_000))
    cluster = ClioCluster(params=params, mn_capacity=256 * MB)
    thread = cluster.cn(0).process("mn0").thread()
    payload = bytes(range(256)) * (2 * MB // 256)
    got = {}

    def app():
        va = yield from thread.ralloc(2 * MB)
        yield from thread.rwrite(va, payload)
        got["data"] = yield from thread.rread(va, len(payload))

    cluster.run(until=cluster.env.process(app()))
    assert got["data"] == payload
    transport = cluster.cn(0).transport
    assert transport.requests_failed == 0 and transport.total_retries == 0
