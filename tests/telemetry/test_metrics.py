"""Tests for typed instruments and the metrics registry."""

from dataclasses import replace
from functools import partial
from types import SimpleNamespace

import pytest

from repro.cluster import ClioCluster
from repro.params import CacheParams, ClioParams, QoSParams, TenantConfig
from repro.sim import Environment
from repro.telemetry.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)

MB = 1 << 20


def test_function_backed_counter_is_a_view():
    registry = MetricsRegistry()
    state = {"hits": 0}
    counter = registry.counter("hits", fn=lambda: state["hits"])
    assert counter.value == 0
    state["hits"] = 42
    assert counter.value == 42


def test_counters_and_gauges_register_only_as_views():
    """Neither kind holds a value of its own: registering one without
    ``fn`` fails there, not at the first read."""
    registry = MetricsRegistry()
    scope = registry.scope("cboard.mn0")
    for register in (registry.counter, registry.gauge, scope.counter,
                     scope.gauge):
        with pytest.raises(TypeError, match="fn"):
            register("requests")
    assert len(registry) == 0
    assert registry.gauge("alive", fn=lambda: True).value is True


def test_histogram_summary_and_quantiles():
    registry = MetricsRegistry()
    hist = registry.histogram("latency", unit="ns")
    for value in [10, 20, 30, 40]:
        hist.observe(value)
    assert hist.count == 4
    assert hist.mean == 25
    assert hist.min == 10 and hist.max == 40
    # Shared interpolated quantile: even-length median is the midpoint.
    assert hist.quantile(0.5) == 25.0
    summary = hist.value
    assert summary["count"] == 4 and summary["sum"] == 100


def test_histogram_sample_cap_keeps_exact_summary():
    from repro.telemetry import metrics as m

    hist = Histogram("h")
    old_cap = m._HISTOGRAM_SAMPLE_CAP
    m._HISTOGRAM_SAMPLE_CAP = 8
    try:
        for value in range(20):
            hist.observe(value)
    finally:
        m._HISTOGRAM_SAMPLE_CAP = old_cap
    assert hist.count == 20
    assert hist.max == 19          # summary stays exact past the cap
    assert hist.truncated == 12
    assert len(hist.samples) == 8


def test_duplicate_names_rejected():
    registry = MetricsRegistry()
    registry.counter("a.b", fn=int)
    with pytest.raises(ValueError):
        registry.gauge("a.b", fn=int)


def test_hierarchical_names_and_prefix_queries():
    registry = MetricsRegistry()
    scope = registry.scope("cboard.mn0")
    scope.counter("tlb.hits", fn=int)
    scope.scope("tlb").counter("misses", fn=int)
    registry.counter("transport.cn0.requests", fn=int)
    assert "cboard.mn0.tlb.hits" in registry
    assert registry.names("cboard.mn0") == [
        "cboard.mn0.tlb.hits", "cboard.mn0.tlb.misses"]
    assert set(registry.snapshot("cboard.mn0")) == {
        "cboard.mn0.tlb.hits", "cboard.mn0.tlb.misses"}
    assert scope.snapshot() == {"tlb.hits": 0, "tlb.misses": 0}


def test_attribute_counters_declare_attribute_and_instrument():
    registry = MetricsRegistry()
    owner = SimpleNamespace()
    registry.scope("cache.cn0").attribute_counters(
        owner, {"hits": "", "fills": "lines installed"})
    assert owner.hits == owner.fills == 0
    owner.hits = 3
    assert registry.snapshot() == {"cache.cn0.fills": 0, "cache.cn0.hits": 3}
    assert registry.get("cache.cn0.fills").description == "lines installed"


def test_cluster_registry_covers_all_tiers():
    cluster = ClioCluster(num_cns=2, mn_capacity=256 * MB)
    names = cluster.metrics.names()
    for expected in (
        "cboard.mn0.requests_served",
        "cboard.mn0.tlb.hits",
        "transport.cn0.requests_issued",
        "transport.cn1.requests_issued",
        "link.cn0->tor.packets_sent",
        "link.tor->mn0.queue_depth",
        "switch.tor.packets_forwarded",
    ):
        assert expected in names, expected


def all_layers_rack_cluster() -> ClioCluster:
    """Two boards on a rack (so health is on) with every other layer:
    verification, caching, qos with one tenant, and tracing."""
    params = replace(
        ClioParams.prototype(),
        cache=CacheParams(line_bytes=512, capacity_lines=8),
        qos=QoSParams(tenants=(TenantConfig("t0", clients=("cn0",),
                                            share=0.5),)))
    return ClioCluster(params=params, num_cns=2, mn_capacity=64 * MB, rack=2,
                       layers=("verification", "caching", "qos", "tracing"))


def test_report_entries_are_the_component_scopes():
    cluster = all_layers_rack_cluster()
    thread = cluster.cn(0).process("mn0").thread()

    def app():
        va = yield from thread.ralloc(64 << 10)
        yield from thread.rwrite(va, b"x" * 64)
        yield from thread.rread(va, 64)

    cluster.run(until=cluster.env.process(app()))
    # Every function-backed instrument resolves.
    assert len(cluster.metrics.snapshot()) == len(cluster.metrics)
    report = cluster.report()
    assert report["boards"] == {board.name: board.metrics.snapshot()
                                for board in cluster.mns}
    assert report["boards"]["mn0"]["requests_served"] > 0
    for node in cluster.cns:
        entry = dict(report["cns"][node.name])
        assert entry.pop("cwnd") == {
            mn: controller.cwnd
            for mn, controller in node.transport._congestion.items()}
        assert entry == node.transport.metrics.snapshot()
    assert report["health"] == cluster.health.metrics.snapshot()
    assert report["health"]["dead_boards"] == []


def test_standalone_components_get_private_registries():
    """Direct construction (no registry) must not collide on names."""
    from repro.net.link import Link

    env = Environment()
    a = Link(env, "x", rate_bps=10**9, propagation_ns=10,
             deliver=lambda p: None)
    b = Link(env, "x", rate_bps=10**9, propagation_ns=10,
             deliver=lambda p: None)
    assert a.metrics.registry is not b.metrics.registry


def test_sampling_collects_timeseries():
    cluster = ClioCluster(mn_capacity=256 * MB)
    cluster.metrics.start_sampling(cluster.env, interval_ns=10_000)
    thread = cluster.cn(0).process("mn0").thread()

    def app():
        va = yield from thread.ralloc(4 * MB)
        for _ in range(20):
            yield from thread.rwrite(va, b"y" * 64)

    cluster.run(until=cluster.env.process(app()))
    cluster.metrics.stop_sampling()
    series = cluster.metrics.series
    assert len(series) >= 2
    times = [t for t, _ in series]
    assert times == sorted(times)
    assert all(t % 10_000 == 0 for t in times)
    first, last = series[0][1], series[-1][1]
    key = "transport.cn0.requests_issued"
    assert last[key] >= first[key]
    # Booleans sample as ints, non-numeric values are skipped.
    assert last["cboard.mn0.alive"] == 1


def test_sampling_rejects_double_start_and_bad_interval():
    registry = MetricsRegistry()
    env = Environment()
    with pytest.raises(ValueError):
        registry.start_sampling(env, 0)
    registry.start_sampling(env, 100)
    with pytest.raises(ValueError):
        registry.start_sampling(env, 100)


def test_restarted_sampling_runs_one_sweep_chain():
    """Stopped at 50 ns and started again at 60: samples land every
    100 ns from the restart, and the stopped chain never fires again."""
    registry = MetricsRegistry()
    env = Environment()
    registry.start_sampling(env, 100)
    env.schedule_callback(50, registry.stop_sampling)
    env.schedule_callback(60, partial(registry.start_sampling, env, 100))
    env.run(until=400)
    assert [t for t, _ in registry.series] == [160, 260, 360]


def test_instrument_kinds():
    assert Counter("c", fn=int).kind == "counter"
    assert Gauge("g", fn=int).kind == "gauge"
    assert Histogram("h").kind == "histogram"
    with pytest.raises(ValueError):
        Counter("", fn=int)
