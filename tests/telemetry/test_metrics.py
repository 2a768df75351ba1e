"""Tests for typed instruments and the metrics registry."""

import pytest

from repro.cluster import ClioCluster
from repro.sim import Environment
from repro.telemetry.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    StatsView,
)

MB = 1 << 20


def test_counter_owned_increments():
    registry = MetricsRegistry()
    counter = registry.counter("requests")
    counter.inc()
    counter.inc(4)
    assert counter.value == 5
    with pytest.raises(ValueError):
        counter.inc(-1)


def test_function_backed_counter_is_a_view():
    registry = MetricsRegistry()
    state = {"hits": 0}
    counter = registry.counter("hits", fn=lambda: state["hits"])
    assert counter.value == 0
    state["hits"] = 42
    assert counter.value == 42
    with pytest.raises(ValueError):
        counter.inc()          # views are read-only


def test_gauge_set_and_view():
    registry = MetricsRegistry()
    gauge = registry.gauge("depth")
    gauge.set(7)
    assert gauge.value == 7
    view = registry.gauge("alive", fn=lambda: True)
    assert view.value is True
    with pytest.raises(ValueError):
        view.set(False)


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
    registry.counter("a.b")
    with pytest.raises(ValueError):
        registry.gauge("a.b")


def test_hierarchical_names_and_prefix_queries():
    registry = MetricsRegistry()
    scope = registry.scope("cboard.mn0")
    scope.counter("tlb.hits")
    scope.scope("tlb").counter("misses")
    registry.counter("transport.cn0.requests")
    assert "cboard.mn0.tlb.hits" in registry
    assert registry.names("cboard.mn0") == [
        "cboard.mn0.tlb.hits", "cboard.mn0.tlb.misses"]
    assert set(registry.snapshot("cboard.mn0")) == {
        "cboard.mn0.tlb.hits", "cboard.mn0.tlb.misses"}
    assert scope.snapshot() == {"tlb.hits": 0, "tlb.misses": 0}


def test_stats_view_snapshot_preserves_order_and_values():
    registry = MetricsRegistry()
    state = {"served": 3}
    view = StatsView({
        "zeta": registry.counter("zeta", fn=lambda: state["served"]),
        "alpha": registry.gauge("alpha", fn=lambda: 1.5),
    })
    snap = view.snapshot()
    assert list(snap) == ["zeta", "alpha"]   # insertion order, not sorted
    assert snap == {"zeta": 3, "alpha": 1.5}


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


def test_component_stats_unchanged_by_registry():
    """stats() keys/values must match the historical dicts exactly."""
    cluster = ClioCluster(mn_capacity=256 * MB)
    thread = cluster.cn(0).process("mn0").thread()

    def app():
        va = yield from thread.ralloc(4 * MB)
        yield from thread.rwrite(va, b"x" * 64)
        yield from thread.rread(va, 64)

    cluster.run(until=cluster.env.process(app()))
    board_stats = cluster.mn.stats()
    assert list(board_stats) == [
        "requests_served", "bytes_served", "tlb_hit_rate", "page_faults",
        "nacks_sent", "retry_dedups", "memory_utilization", "pt_entries",
        "alive", "crashes", "restarts", "packets_dropped_dead",
        "responses_discarded"]
    assert board_stats["requests_served"] == 3
    assert board_stats["alive"] is True
    transport_stats = cluster.cn(0).transport.stats()
    assert list(transport_stats) == [
        "requests_issued", "requests_completed", "requests_failed",
        "total_retries", "stale_responses", "batches_issued",
        "batch_subops_issued", "batch_subops_completed"]
    assert transport_stats["requests_issued"] == 3
    assert transport_stats["requests_completed"] == 3
    link_stats = cluster.topology.uplink("cn0").stats()
    assert list(link_stats) == [
        "packets_sent", "packets_dropped", "packets_dropped_down",
        "packets_corrupted", "bytes_sent"]
    assert link_stats["packets_sent"] == 3
    switch_stats = cluster.topology.switches[0].stats()
    assert switch_stats["packets_forwarded"] > 0
    assert switch_stats["unroutable"] == 0


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


def test_instrument_kinds():
    assert Counter("c").kind == "counter"
    assert Gauge("g").kind == "gauge"
    assert Histogram("h").kind == "histogram"
    with pytest.raises(ValueError):
        Counter("")
