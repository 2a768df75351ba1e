"""Tests for the ClioCluster assembly helper."""

from dataclasses import replace
from itertools import permutations

import pytest

from repro.cluster import ClioCluster
from repro.params import CacheParams, ClioParams, QoSParams, TenantConfig
from repro.verify import oplog_digest

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


@pytest.mark.parametrize("override", [{"mn_capacity": 0},
                                      {"page_size": 0}])
def test_zero_sizes_are_rejected_not_defaulted(override):
    """Only ``None`` means "the params default": a 0 is a bad size."""
    with pytest.raises(ValueError):
        ClioCluster(**override)


def test_zero_process_page_size_is_rejected_not_defaulted():
    cluster = ClioCluster(mn_capacity=64 * MB)
    with pytest.raises(ValueError, match="page size"):
        cluster.cn(0).process("mn0", page_size=0)


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
    cluster = ClioCluster(num_mns=2, mn_capacity=64 * MB,
                          layers=("health",))
    cluster.board("mn1").crash()
    cluster.run(until=350_000)      # three missed 100 us heartbeats
    report = cluster.report()
    assert report["health"]["dead_boards"] == ["mn1"]
    assert report["boards"]["mn1"]["alive"] is False


# -- layers: built once, in one order, from params alone ---------------------------

LAYERS = ("health", "verification", "caching", "qos", "tracing")

LAYER_PARAMS = replace(
    ClioParams.prototype(),
    cache=CacheParams(policy="back", line_bytes=512, capacity_lines=8),
    qos=QoSParams(tenants=tuple(
        TenantConfig(f"t{i}", clients=(f"cn{i}",), share=0.5)
        for i in range(2))))


def mixed_run(layers, seed=11):
    """A short two-CN mix (sync + async reads/writes on one shared
    region, a contended atomic) -> ``(env.now, env._seq, oplog digest)``."""
    cluster = ClioCluster(params=LAYER_PARAMS, seed=seed, num_cns=2,
                          mn_capacity=64 * MB, layers=layers)
    env = cluster.env
    threads = [node.process("mn0", pid=5150).thread() for node in cluster.cns]
    log = []
    ready = env.event()

    def client(index):
        thread = threads[index]
        if index == 0:
            ready.succeed((yield from thread.ralloc(64 << 10)))
        va = yield ready
        for op in range(24):
            offset = ((op * 7919 + index * 104729) % (8 << 10)) // 64 * 64
            if (op + index) % 3 == 0:
                yield from thread.rwrite(va + offset, bytes([op + 1]) * 64)
                log.append((index, op, "w", env.now))
            elif op % 5 == 0:
                handle = yield from thread.rread_async(va + offset, 64)
                data = (yield from thread.rpoll([handle]))[0].result
                log.append((index, op, "ra", env.now, data))
            else:
                data = yield from thread.rread(va + offset, 64)
                log.append((index, op, "r", env.now, data))
            if op % 8 == 7:
                result = yield from thread.rfaa(va + (32 << 10), 1)
                log.append((index, op, "faa", env.now, result))

    cluster.run_all([env.process(client(i)) for i in range(2)])
    if cluster.verifier is not None:
        assert cluster.verifier.ok, cluster.verifier.report()
    return env.now, env._seq, oplog_digest(log)


@pytest.fixture(scope="module")
def table_order_run():
    return mixed_run(LAYERS)


@pytest.mark.parametrize("layers", list(permutations(LAYERS)),
                         ids="-".join)
def test_layer_listing_order_does_not_matter(layers, table_order_run):
    assert mixed_run(layers) == table_order_run


def test_traced_and_verified_builds_match_the_bare_one(table_order_run):
    """Passivity: tracing and verification schedule nothing and draw no
    RNG, on a bare cluster and on top of the layers that do."""
    assert mixed_run(("health", "caching", "qos")) == table_order_run
    assert mixed_run(("verification", "tracing")) == mixed_run(())
    # ...whereas the caching layer does change the run it is part of.
    assert mixed_run(("caching",)) != mixed_run(())


def test_layers_hand_their_handles_to_every_component():
    cluster = ClioCluster(params=LAYER_PARAMS, num_cns=2, mn_capacity=64 * MB,
                          rack=2, layers=LAYERS)
    controller = cluster.rack.controller
    assert controller.health is cluster.health
    assert controller.verifier is cluster.mn.verifier is cluster.verifier
    assert controller.cache_directory is cluster.cache_dir is not None
    assert cluster.health.tracer is cluster.cache_dir.tracer is cluster.tracer
    assert [node.cache.tracer for node in cluster.cns] == [cluster.tracer] * 2
    bare = ClioCluster(mn_capacity=64 * MB)
    assert (bare.health, bare.verifier, bare.cache_dir, bare.tracer,
            bare.qos_shapers, bare.cn(0).cache) == (None,) * 4 + ({}, None)


@pytest.mark.parametrize("layers", [("cacheing",), ("qos", "tracing", "qos"),
                                    "qos"])
def test_unknown_or_duplicate_layer_names_are_rejected(layers):
    with pytest.raises(ValueError, match="health.*verification.*caching"):
        ClioCluster(params=LAYER_PARAMS, num_cns=2, mn_capacity=64 * MB,
                    layers=layers)


def test_explicit_num_mns_must_agree_with_the_rack():
    from repro.rack import RackConfig

    with pytest.raises(ValueError, match="num_mns=3"):
        ClioCluster(num_mns=3, mn_capacity=64 * MB,
                    rack=RackConfig(boards=8))
    cluster = ClioCluster(num_mns=5, mn_capacity=64 * MB,
                          rack=RackConfig(boards=4, spares=1))
    assert len(cluster.mns) == 5
    assert len(ClioCluster(mn_capacity=64 * MB, rack=2).mns) == 2


def test_qos_layer_on_a_rack_shapes_every_downlink():
    """One tenant table, read once: every ToR downlink to a board gets
    the shaper the cluster lists for it."""
    from repro.rack import RackConfig

    qos = QoSParams(tenants=(TenantConfig("a", clients=("cn0",),
                                          share=0.5),))
    cluster = ClioCluster(params=replace(ClioParams.prototype(), qos=qos),
                          mn_capacity=64 * MB, rack=RackConfig(boards=2),
                          layers=("qos",))
    assert set(cluster.qos_shapers) == {"mn0", "mn1"}
    for name, shaper in cluster.qos_shapers.items():
        topology = cluster.topology
        tor = topology.switches[topology.tor_index(name)]
        assert tor.shaper_for(name) is shaper
