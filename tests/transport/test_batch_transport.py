"""Transport-level behaviour of multi-op BATCH frames.

Satellite coverage for repro.clib.batch: a frame is ONE transport request —
one ID, one congestion-window slot, one retransmission unit — so every
pre-existing accounting invariant must hold verbatim with batching on,
including under forced retransmission (a repro.faults loss burst):

* conservation: ``requests_issued == requests_completed +
  requests_failed`` once the run drains, with the ``batch_subops_*``
  counters riding consistently alongside;
* window accounting: congestion ``outstanding`` equals the pending map
  (``check_transport``);
* retry dedup: a retransmitted write-bearing frame applies its writes
  exactly once (the shadow oracle audits every read against that).
"""

from dataclasses import replace

from repro.cluster import ClioCluster
from repro.faults.injector import FaultInjector
from repro.faults.schedule import FaultSchedule
from repro.net.packet import BatchSubOp, PacketType
from repro.params import ClioParams
from repro.verify import check_transport

MB = 1 << 20
US = 1000
MS = 1000 * US


def _retry_params() -> ClioParams:
    """Tight timeouts so a loss burst forces retransmission quickly."""
    params = ClioParams.prototype()
    return replace(params, clib=replace(params.clib, timeout_ns=20 * US,
                                        slow_timeout_ns=1 * MS,
                                        max_retries=8))


def _batched_run(cluster, ops_per_client=120, clients=2):
    """Drive a batched read/write mix to completion; returns failures."""
    failures = []
    done = []

    def worker(cn_index, pid):
        thread = (cluster.cn(cn_index).process("mn0", pid=pid)
                  .thread(ordering_granularity="byte"))
        va = yield from thread.ralloc(8 * MB)
        thread.enable_batching(max_ops=8, window_ns=400)
        handles = []
        for index in range(ops_per_client):
            offset = 128 * index
            if index % 2:
                handle = yield from thread.rread_async(va + offset, 64)
            else:
                handle = yield from thread.rwrite_async(
                    va + offset, bytes([index % 256]) * 64)
            handles.append(handle)
            if len(handles) >= 16:
                completions = yield from thread.rpoll(handles)
                handles = []
                failures.extend(c for c in completions if not c.ok)
        thread._flush_batches()
        completions = yield from thread.rpoll(handles)
        failures.extend(c for c in completions if not c.ok)
        done.append(cluster.env.now)

    procs = [cluster.env.process(worker(index, 9100 + index))
             for index in range(clients)]
    cluster.run(until=cluster.env.all_of(procs))
    assert len(done) == clients, "batched workers hung"
    return failures


def _assert_counters_conserved(cluster):
    for node in cluster.cns:
        transport = node.transport
        settled = transport.requests_completed + transport.requests_failed
        assert transport.requests_issued == settled, (
            f"{node.name}: issued {transport.requests_issued} != "
            f"completed+failed {settled}")
        assert transport.batch_subops_completed <= \
            transport.batch_subops_issued
        assert transport.batches_issued <= transport.requests_issued
        assert check_transport(node) == []


def test_batch_counters_conserved_clean_run():
    cluster = ClioCluster(seed=11, num_cns=2, mn_capacity=256 * MB)
    failures = _batched_run(cluster)
    assert failures == []
    _assert_counters_conserved(cluster)
    for node in cluster.cns:
        # Every sub-op landed: nothing lost inside frames.
        assert (node.transport.batch_subops_completed
                == node.transport.batch_subops_issued)
        assert node.transport.batches_issued > 0


def test_batch_counters_conserved_under_loss_burst():
    """Retransmitted frames must not double-count or leak window slots."""
    cluster = ClioCluster(params=_retry_params(), seed=11, num_cns=2,
                          mn_capacity=256 * MB, layers=("verification",))
    verifier = cluster.verifier
    schedule = (FaultSchedule()
                .loss_burst(15 * US, "cn0", 400 * US, rate=0.4)
                .loss_burst(40 * US, "mn0", 200 * US, rate=0.3))
    FaultInjector(cluster, schedule).arm()
    failures = _batched_run(cluster)
    _assert_counters_conserved(cluster)
    retries = sum(node.transport.total_retries for node in cluster.cns)
    assert retries > 0, "loss burst produced no retransmissions"
    # Per-op failures (retries exhausted) are typed, never silent.
    assert all(c.status == "request_failed" for c in failures)
    # Dedup correctness: retransmitted write frames applied exactly once —
    # the oracle checked every batched read against shadow memory.
    verifier.sweep()
    assert verifier.violations == []
    assert verifier.report()["read_mismatches"] == 0


def test_batch_retry_is_bit_identical_under_loss():
    def fingerprint(seed):
        cluster = ClioCluster(params=_retry_params(), seed=seed, num_cns=1,
                              mn_capacity=256 * MB)
        schedule = FaultSchedule().loss_burst(15 * US, "cn0", 300 * US,
                                              rate=0.5)
        FaultInjector(cluster, schedule).arm()
        _batched_run(cluster, ops_per_client=80, clients=1)
        transport = cluster.cn(0).transport
        return (cluster.env.now, transport.requests_issued,
                transport.total_retries, transport.batch_subops_completed)

    assert fingerprint(5) == fingerprint(5)


def test_oversized_batch_frame_rejected():
    cluster = ClioCluster(seed=0, mn_capacity=64 * MB)
    transport = cluster.cn(0).transport
    net = cluster.params.network
    payload = b"x" * (net.mtu // 2)
    sub_ops = tuple(BatchSubOp(op=PacketType.WRITE, va=4096 * index,
                               size=len(payload), data=payload)
                    for index in range(4))

    def app():
        try:
            yield from transport.request_batch("mn0", 9001, sub_ops)
        except ValueError as exc:
            return str(exc)
        return None

    process = cluster.env.process(app())
    cluster.run(until=process)
    assert process.value is not None
    # Nothing was issued for the rejected frame.
    assert transport.batches_issued == 0
    assert transport.requests_issued == 0


def test_empty_batch_rejected():
    cluster = ClioCluster(seed=0, mn_capacity=64 * MB)
    transport = cluster.cn(0).transport

    def app():
        try:
            yield from transport.request_batch("mn0", 9001, ())
        except ValueError:
            return "rejected"
        return None

    process = cluster.env.process(app())
    cluster.run(until=process)
    assert process.value == "rejected"
