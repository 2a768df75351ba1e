"""Tests for span tracing: the Tracer and the built-in hook sites."""

from dataclasses import replace

import pytest

from repro.cluster import ClioCluster
from repro.params import ClioParams
from repro.sim import Environment
from repro.telemetry.spans import Tracer

MB = 1 << 20


def run_rw_workload(cluster, ops=5):
    thread = cluster.cn(0).process("mn0").thread()

    def app():
        va = yield from thread.ralloc(4 * MB)
        for index in range(ops):
            yield from thread.rwrite(va, bytes([index]) * 32)
            yield from thread.rread(va, 32)

    cluster.run(until=cluster.env.process(app()))


# -- Tracer unit behaviour --------------------------------------------------------


def test_begin_end_records_interval():
    env = Environment()
    tracer = Tracer(env)
    handle = tracer.begin(tracer.site("work", "test", "t0", ("k",)), 1)
    assert tracer.spans[0].open
    env.run(until=100)
    tracer.end(handle, tracer.end_site("ok"), True)
    span, = tracer.spans
    assert span.start_ns == 0 and span.end_ns == 100
    assert span.duration_ns == 100
    assert not span.open
    assert span.args == {"k": 1, "ok": True}


def test_complete_and_instant():
    env = Environment()
    tracer = Tracer(env)
    tracer.complete(tracer.site("c", "test", "t0"), start_ns=5, end_ns=9)
    tracer.instant(tracer.site("i", "test", "t1"))
    assert tracer.find_spans("c")[0].duration_ns == 4
    assert tracer.find_instants("i")[0].at_ns == 0
    assert tracer.tracks() == ["t0", "t1"]


def test_capacity_cap_drops_not_grows():
    env = Environment()
    tracer = Tracer(env, max_records=2)
    site = tracer.site("a", "t", "x")
    assert tracer.begin(site) is not None
    assert tracer.instant(site) is not None
    assert tracer.begin(site) is None               # over cap
    assert tracer.instant(site) is None
    tracer.end(None)                                # None handle tolerated
    assert len(tracer) == 2
    assert tracer.dropped == 2
    with pytest.raises(ValueError):
        Tracer(env, max_records=0)


def test_summary_aggregates_by_name():
    env = Environment()
    tracer = Tracer(env)
    site = tracer.site("op", "t", "x")
    tracer.complete(site, 0, 10)
    tracer.complete(site, 10, 30)
    tracer.begin(site)
    summary = tracer.summary()
    assert summary["op"]["count"] == 3
    assert summary["op"]["open"] == 1
    assert summary["op"]["total_ns"] == 30
    assert summary["op"]["mean_ns"] == 15


# -- cluster wiring ---------------------------------------------------------------


def test_tracing_reaches_every_component():
    """``layers=("tracing",)`` and the late ``enable_tracing()`` attach
    run the same wiring."""
    late = ClioCluster(mn_capacity=256 * MB)
    assert late.tracer is None
    assert late.cn(0).transport.tracer is None
    assert late.mn.fast_path.tracer is None
    late.enable_tracing()
    for cluster in (late, ClioCluster(mn_capacity=256 * MB,
                                      layers=("tracing",))):
        tracer = cluster.tracer
        assert cluster.enable_tracing() is tracer         # idempotent
        assert cluster.cn(0).transport.tracer is tracer
        assert cluster.mn.tracer is tracer
        assert cluster.mn.fast_path.tracer is tracer
        assert cluster.mn.slow_path.tracer is tracer
        assert cluster.topology.uplink("cn0").tracer is tracer


def test_request_lifecycle_spans():
    cluster = ClioCluster(mn_capacity=256 * MB)
    tracer = cluster.enable_tracing()
    run_rw_workload(cluster, ops=3)

    requests = tracer.find_spans("request:", category="transport")
    assert len(requests) == 7            # alloc + 3 writes + 3 reads
    for span in requests:
        assert span.track == "cn0"
        assert not span.open
        assert span.args["outcome"] == "ok"
        assert span.args["retries"] == 0
        assert span.duration_ns > 0

    attempts = tracer.find_spans("attempt:", category="transport")
    assert len(attempts) == 7            # no loss => one attempt each
    for span in attempts:
        assert span.args["outcome"] == "ok"
        assert span.args["retry_of"] is None

    mn_spans = tracer.find_spans("mn:", category="cboard")
    assert len(mn_spans) == 7
    for span in mn_spans:
        assert span.track == "mn0"
        assert span.args["discarded"] is False

    fast = tracer.find_spans("fastpath:", category="pipeline")
    assert len(fast) == 6                # 3 writes + 3 reads
    for span in fast:
        assert span.args["status"] == "ok"
        parts = (span.args["ingest_ns"] + span.args["pipeline_ns"]
                 + span.args["tlb_miss_ns"] + span.args["fault_ns"]
                 + span.args["dram_ns"])
        assert span.duration_ns == parts

    assert len(tracer.find_spans("slowpath:alloc")) == 1
    assert len(tracer.find_spans("page_fault")) == 1
    responses = tracer.find_instants("mn_response")
    assert len(responses) == 7


def test_retry_spans_under_loss():
    base = ClioParams.prototype()
    params = replace(base, network=replace(base.network, loss_rate=0.25),
                     clib=replace(base.clib, max_retries=8))
    cluster = ClioCluster(params=params, seed=9, mn_capacity=256 * MB)
    tracer = cluster.enable_tracing()
    run_rw_workload(cluster, ops=8)
    retried = [span for span in tracer.find_spans("attempt:")
               if span.args.get("retry_of") is not None]
    assert retried
    timeouts = [span for span in tracer.find_spans("attempt:")
                if span.args.get("outcome") == "timeout"]
    assert timeouts
    drops = tracer.find_instants("drop:loss", category="net")
    assert drops
    completed = [span for span in tracer.find_spans("request:")
                 if span.args.get("outcome") == "ok"
                 and span.args.get("retries", 0) > 0]
    assert completed


def test_fault_spans_cover_crash_and_stall():
    from repro.faults.injector import FaultInjector
    from repro.faults.schedule import FaultSchedule

    cluster = ClioCluster(seed=5, mn_capacity=256 * MB)
    tracer = cluster.enable_tracing()
    schedule = (FaultSchedule()
                .crash_board(50_000, "mn0", restart_after_ns=70_000)
                .stall_slowpath(150_000, "mn0", duration_ns=30_000))
    injector = FaultInjector(cluster, schedule)
    injector.arm()
    cluster.run(until=300_000)

    crash = tracer.find_spans("crashed", category="fault")
    assert len(crash) == 1
    assert crash[0].start_ns == 50_000 and crash[0].end_ns == 120_000
    stall = tracer.find_spans("arm_stall", category="fault")
    assert len(stall) == 1
    assert stall[0].duration_ns == 30_000
    applications = tracer.find_instants("fault:", category="fault")
    assert len(applications) == len(injector.applied) == 4
    for instant, applied in zip(applications, injector.applied):
        assert instant.at_ns == applied.at_ns
        assert instant.args["applied"] is applied.applied


def test_health_monitor_emits_belief_instants():
    cluster = ClioCluster(seed=5, mn_capacity=256 * MB,
                          layers=("health", "tracing"))
    tracer = cluster.tracer
    cluster.mn.crash()
    cluster.run(until=350_000)      # three missed 100 us heartbeats
    cluster.mn.restart()
    cluster.run(until=450_000)
    downs = tracer.find_instants("board_down", category="health")
    ups = tracer.find_instants("board_up", category="health")
    assert len(downs) == 1 and downs[0].track == "mn0"
    assert len(ups) == 1
    assert downs[0].at_ns < ups[0].at_ns


def test_traced_run_timestamps_identical_to_untraced():
    """Tracing must not shift a single simulated timestamp."""
    def run(trace):
        cluster = ClioCluster(seed=42, mn_capacity=256 * MB)
        if trace:
            cluster.enable_tracing()
        run_rw_workload(cluster, ops=10)
        return (cluster.env.now, cluster.mn.requests_served,
                cluster.cn(0).transport.requests_completed)

    assert run(trace=False) == run(trace=True)
