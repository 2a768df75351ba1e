"""The telemetry layer's zero-cost and passivity guarantees.

Two properties, in increasing strength:

1. An *uninstrumented* run on the telemetry-enabled tree reproduces the
   pre-telemetry golden chaos fingerprint bit-for-bit — registering
   instruments must not add events or RNG draws.
2. A *tracing-enabled* run also reproduces it — recording spans is
   passive and must not shift a single simulated timestamp.

(Opt-in timeseries sampling adds read-only callbacks, so it legitimately
changes the event count but must not change workload timestamps — also
pinned here.)
"""

from repro.cluster import ClioCluster
from repro.core.addr import Permission
from repro.net.packet import PacketType
from tests.faults.test_chaos import GOLDEN_NO_FAULT

MB = 1 << 20


def fingerprint(trace=False, sample_interval_ns=0):
    cluster = ClioCluster(seed=1234, num_cns=2, mn_capacity=256 * MB)
    if trace:
        cluster.enable_tracing()
    if sample_interval_ns:
        cluster.metrics.start_sampling(cluster.env, sample_interval_ns)
    done = []

    def worker(cn_index, pid):
        transport = cluster.cn(cn_index).transport
        outcome = yield from transport.request(
            "mn0", PacketType.ALLOC, pid=pid,
            payload=(8 * MB, Permission.READ_WRITE, None))
        va = outcome.body.value.va
        for index in range(120):
            offset = (index * 4096) % (4 * MB)
            yield from transport.request(
                "mn0", PacketType.WRITE, pid=pid, va=va + offset, size=64,
                data=bytes([index % 256]) * 64)
            yield from transport.request(
                "mn0", PacketType.READ, pid=pid, va=va + offset, size=64)
        done.append(cluster.env.now)

    procs = [cluster.env.process(worker(0, 9001)),
             cluster.env.process(worker(1, 9002))]
    cluster.run(until=cluster.env.all_of(procs))
    result = (cluster.env.now, tuple(sorted(done)),
              cluster.mn.requests_served,
              tuple(cn.transport.requests_completed for cn in cluster.cns),
              tuple(cn.transport.total_retries for cn in cluster.cns))
    return cluster, result


def test_uninstrumented_run_matches_pretelemetry_golden():
    _, result = fingerprint(trace=False)
    assert result == GOLDEN_NO_FAULT


def test_traced_run_matches_pretelemetry_golden():
    cluster, result = fingerprint(trace=True)
    assert result == GOLDEN_NO_FAULT
    # And it actually recorded the workload while matching.
    assert len(cluster.tracer.spans) > 480 * 2
    assert cluster.tracer.dropped == 0


def test_sampled_run_keeps_workload_timestamps():
    cluster, result = fingerprint(sample_interval_ns=10_000)
    assert result == GOLDEN_NO_FAULT
    assert len(cluster.metrics.series) > 10


def test_stats_snapshot_is_pure():
    """Taking snapshots mid-run must not perturb the simulation."""
    cluster = ClioCluster(seed=1234, num_cns=2, mn_capacity=256 * MB)
    snapshots = []

    def snoop():
        while True:
            yield cluster.env.timeout(50_000)
            snapshots.append(cluster.metrics.snapshot())
            cluster.mn.metrics.snapshot()
            cluster.report()

    cluster.env.process(snoop())
    done = []

    def worker(cn_index, pid):
        transport = cluster.cn(cn_index).transport
        outcome = yield from transport.request(
            "mn0", PacketType.ALLOC, pid=pid,
            payload=(8 * MB, Permission.READ_WRITE, None))
        va = outcome.body.value.va
        for index in range(120):
            offset = (index * 4096) % (4 * MB)
            yield from transport.request(
                "mn0", PacketType.WRITE, pid=pid, va=va + offset, size=64,
                data=bytes([index % 256]) * 64)
            yield from transport.request(
                "mn0", PacketType.READ, pid=pid, va=va + offset, size=64)
        done.append(cluster.env.now)

    procs = [cluster.env.process(worker(0, 9001)),
             cluster.env.process(worker(1, 9002))]
    cluster.run(until=cluster.env.all_of(procs))
    result = (cluster.env.now, tuple(sorted(done)),
              cluster.mn.requests_served,
              tuple(cn.transport.requests_completed for cn in cluster.cns),
              tuple(cn.transport.total_retries for cn in cluster.cns))
    assert result == GOLDEN_NO_FAULT
    assert snapshots
    served = [s["cboard.mn0.requests_served"] for s in snapshots]
    assert served == sorted(served)
