"""Tests for the ClioCluster assembly helper."""

import pytest

from repro.cluster import ClioCluster
from repro.params import ClioParams

MB = 1 << 20


def test_default_cluster_shape():
    cluster = ClioCluster(mn_capacity=64 * MB)
    assert len(cluster.cns) == 1
    assert len(cluster.mns) == 1
    assert cluster.mn.name == "mn0"
    assert cluster.cn(0).name == "cn0"


def test_multi_node_names_distinct():
    cluster = ClioCluster(num_cns=3, num_mns=2, mn_capacity=64 * MB)
    assert [board.name for board in cluster.mns] == ["mn0", "mn1"]
    assert [node.name for node in cluster.cns] == ["cn0", "cn1", "cn2"]
    assert sorted(cluster.topology.node_names()) == [
        "cn0", "cn1", "cn2", "mn0", "mn1"]


def test_run_requires_until():
    cluster = ClioCluster(mn_capacity=64 * MB)
    with pytest.raises(ValueError, match="until"):
        cluster.run()


def test_run_all_waits_for_every_process():
    cluster = ClioCluster(mn_capacity=64 * MB)
    done = []

    def worker(delay):
        yield cluster.env.timeout(delay)
        done.append(delay)

    cluster.run_all([cluster.env.process(worker(10)),
                     cluster.env.process(worker(30))])
    assert sorted(done) == [10, 30]
    assert cluster.env.now == 30


def test_invalid_shape_rejected():
    with pytest.raises(ValueError):
        ClioCluster(num_cns=0)
    with pytest.raises(ValueError):
        ClioCluster(num_mns=0)


def test_page_size_override_propagates_everywhere():
    cluster = ClioCluster(mn_capacity=64 * MB, page_size=64 << 10)
    assert cluster.mn.page_spec.page_size == 64 << 10
    process = cluster.cn(0).process("mn0")
    assert process.page_spec.page_size == 64 << 10


def test_custom_params_used():
    params = ClioParams.asic_projection()
    cluster = ClioCluster(params=params, mn_capacity=64 * MB)
    assert cluster.mn.params.cboard.cycle_ns == 0.5


def test_same_seed_same_network_draws():
    a = ClioCluster(seed=5, mn_capacity=64 * MB)
    b = ClioCluster(seed=5, mn_capacity=64 * MB)
    assert a.rng.fork("x").uniform() == b.rng.fork("x").uniform()


def test_report_aggregates_boards_and_cns():
    cluster = ClioCluster(num_cns=2, num_mns=2, mn_capacity=64 * MB)
    thread = cluster.cn(1).process("mn1").thread()

    def app():
        va = yield from thread.ralloc(64)
        yield from thread.rwrite(va, b"stats")

    cluster.run(until=cluster.env.process(app()))
    report = cluster.report()
    assert set(report["boards"]) == {"mn0", "mn1"}
    assert set(report["cns"]) == {"cn0", "cn1"}
    assert report["boards"]["mn1"]["requests_served"] == 2
    assert report["boards"]["mn0"]["requests_served"] == 0
    assert report["cns"]["cn1"]["requests_completed"] == 2
    assert "mn1" in report["cns"]["cn1"]["cwnd"]
    assert report["now_ns"] == cluster.env.now
    assert report["cns"]["cn1"]["requests_failed"] == 0
    assert report["health"] is None   # monitoring is opt-in


def test_board_accessor_by_name():
    cluster = ClioCluster(num_mns=2, mn_capacity=64 * MB)
    assert cluster.board("mn1") is cluster.mns[1]
    with pytest.raises(KeyError):
        cluster.board("mn9")


def test_health_monitor_opt_in_and_reported():
    cluster = ClioCluster(num_mns=2, mn_capacity=64 * MB)
    health = cluster.enable_health_monitor(interval_ns=10_000,
                                           miss_threshold=2)
    assert cluster.enable_health_monitor() is health   # idempotent
    cluster.board("mn1").crash()
    cluster.run(until=100_000)
    report = cluster.report()
    assert report["health"]["dead_boards"] == ["mn1"]
    assert report["boards"]["mn1"]["alive"] is False


def test_opt_in_subsystems_share_the_enable_disable_surface():
    """Every opt-in subsystem: enable_*() returns the handle, idempotent."""
    cluster = ClioCluster(num_mns=1, mn_capacity=64 * MB)
    health = cluster.enable_health_monitor(interval_ns=10_000)
    assert cluster.enable_health_monitor() is health
    tracer = cluster.enable_tracing()
    assert cluster.enable_tracing() is tracer
    verifier = cluster.enable_verification()
    assert cluster.enable_verification() is verifier
    cluster.disable_tracing()
    assert cluster.tracer is None
    cluster.disable_verification()
    assert cluster.verifier is None


def test_disable_health_monitor_stops_sweeps_and_restarts():
    cluster = ClioCluster(num_mns=1, mn_capacity=64 * MB)
    health = cluster.enable_health_monitor(interval_ns=10_000)
    cluster.run(until=100_000)
    beats = health.heartbeats
    assert beats > 0
    cluster.disable_health_monitor()
    cluster.run(until=300_000)
    assert health.heartbeats == beats   # no sweeps while disabled
    assert cluster.enable_health_monitor() is health   # re-arms the sweep
    cluster.run(until=400_000)
    assert health.heartbeats > beats


def test_enable_qos_rejects_a_different_second_configuration():
    from repro.params import TenantConfig

    tenants = (TenantConfig("a", clients=("cn0",), share=0.5),)
    cluster = ClioCluster(num_cns=2, mn_capacity=64 * MB)
    shapers = cluster.enable_qos(tenants)
    installed = cluster.params.qos
    assert cluster.enable_qos() is shapers            # idempotent
    assert cluster.enable_qos(tenants) is shapers     # same config again
    with pytest.raises(ValueError, match="already built"):
        cluster.enable_qos((TenantConfig("b", clients=("cn1",), share=0.2),))
    assert cluster.params.qos == installed


def test_enable_caching_rejects_different_second_overrides():
    cluster = ClioCluster(num_cns=2, mn_capacity=64 * MB)
    directory = cluster.enable_caching(policy="back", line_bytes=512)
    assert cluster.enable_caching() is directory      # idempotent
    assert cluster.enable_caching(policy="back") is directory
    with pytest.raises(ValueError, match="already enabled"):
        cluster.enable_caching(policy="through")
    with pytest.raises(ValueError, match="already enabled"):
        cluster.enable_caching(line_bytes=1024)
    assert cluster.cn(0).cache.policy == "back"
