"""EgressShaper unit tests: GCRA conformance, FIFO release, metrics.

Packets go through a real :class:`~repro.net.link.Link` so released
traffic still pays serialization; the assertions pin the *shaper's*
decisions (passed/shaped counts, release spacing) which are pure
integer arithmetic with no RNG.
"""

import pytest

from repro.net.link import Link
from repro.net.packet import ClioHeader, Packet, PacketType
from repro.net.qos import EgressShaper
from repro.params import (
    KB,
    SEC,
    NetworkParams,
    QoSParams,
    TenantConfig,
)
from repro.sim import Environment
from repro.telemetry.metrics import MetricsRegistry

GBPS = 10 ** 9


def make_shaper(qos, rate_bps=10 * GBPS, registry=None):
    env = Environment()
    delivered = []
    link = Link(env, "tor->mn0", rate_bps, 500,
                deliver=delivered.append)
    shaper = EgressShaper(env, "mn0", link, qos, registry=registry)
    return env, shaper, delivered


def packet(src, wire_bytes=1464, label=0):
    """A write packet labelled by its ``header.request_id``."""
    header = ClioHeader(src=src, dst="mn0", request_id=label,
                        packet_type=PacketType.WRITE, pid=1, va=0,
                        size=wire_bytes)
    return Packet(header=header, payload=None, wire_bytes=wire_bytes)


QOS = QoSParams(tenants=(
    TenantConfig(name="victim", clients=("cn0",), share=0.7),
    TenantConfig(name="aggr", clients=("cn1", "cn2"), share=0.3),
), burst_bytes=3 * KB)


def test_burst_within_allowance_passes_immediately():
    env, shaper, delivered = make_shaper(QOS)
    for label in range(2):          # 2 x 1464B < 3KB burst
        shaper.send(packet("cn1", label=label))
    queue = shaper._queues["aggr"]
    assert queue.passed == 2
    assert queue.shaped == 0
    env.run(until=100_000)
    assert len(delivered) == 2


def test_burst_beyond_allowance_is_shaped_and_spaced():
    env, shaper, delivered = make_shaper(QOS)
    for label in range(16):
        shaper.send(packet("cn1", label=label))
    queue = shaper._queues["aggr"]
    assert queue.passed == 3       # tau admits the first 3 at t=0
    assert queue.shaped == 13
    assert shaper.backlog == 13
    env.run(until=100_000)
    assert len(delivered) == 16    # conservation: everything drains
    assert shaper.backlog == 0
    assert queue.shaped_delay_ns > 0
    # Releases pace at the reserved rate: one emission per packet.
    emission = queue.emission_ns(1464)
    assert emission == (1464 * 8 * SEC) // int(10 * GBPS * 0.3)


def test_release_order_is_fifo():
    env, shaper, delivered = make_shaper(QOS)
    for label in range(8):
        shaper.send(packet("cn1", label=label))
    env.run(until=100_000)
    assert [p.header.request_id for p in delivered] == list(range(8))


def test_tenants_do_not_shape_each_other():
    env, shaper, delivered = make_shaper(QOS)
    for label in range(16):
        shaper.send(packet("cn1", label=label))     # aggr blows its bucket
    shaper.send(packet("cn0", label=100))         # victim is untouched
    assert shaper._queues["victim"].passed == 1
    assert shaper._queues["victim"].shaped == 0


def test_unclassified_sources_bypass():
    env, shaper, delivered = make_shaper(QOS)
    shaper.send(packet("cn9", label=1))
    assert shaper.unclassified == 1
    env.run(until=10_000)
    assert len(delivered) == 1


def test_shaper_metrics():
    registry = MetricsRegistry()
    env, shaper, _ = make_shaper(QOS, registry=registry)
    for label in range(6):
        shaper.send(packet("cn1", label=label))
    snapshot = registry.snapshot()
    assert snapshot["qos.mn0.tenant.aggr.passed"] == 3
    assert snapshot["qos.mn0.tenant.aggr.shaped"] == 3
    assert snapshot["qos.mn0.tenant.aggr.queue_depth"] == 3
    assert snapshot["qos.mn0.backlog"] == 3
    assert snapshot["qos.mn0.tenant.victim.passed"] == 0


# -- QoSParams validation -----------------------------------------------------


def test_tenant_share_bounds():
    with pytest.raises(ValueError):
        TenantConfig(name="x", clients=("cn0",), share=0.0)
    with pytest.raises(ValueError):
        TenantConfig(name="x", clients=("cn0",), share=1.5)


def test_duplicate_tenant_names_rejected():
    with pytest.raises(ValueError, match="duplicate"):
        QoSParams(tenants=(
            TenantConfig(name="a", clients=("cn0",), share=0.4),
            TenantConfig(name="a", clients=("cn1",), share=0.4),
        ))


def test_shares_must_not_oversubscribe():
    with pytest.raises(ValueError):
        QoSParams(tenants=(
            TenantConfig(name="a", clients=("cn0",), share=0.7),
            TenantConfig(name="b", clients=("cn1",), share=0.7),
        ))


def test_client_in_one_tenant_only():
    with pytest.raises(ValueError):
        QoSParams(tenants=(
            TenantConfig(name="a", clients=("cn0",), share=0.4),
            TenantConfig(name="b", clients=("cn0",), share=0.4),
        ))


def test_tenant_of_lookup():
    assert QOS.tenant_of("cn2").name == "aggr"
    assert QOS.tenant_of("cn0").name == "victim"
    assert QOS.tenant_of("mn0") is None


# -- cluster wiring -----------------------------------------------------------


def qos_cluster(layers=("qos",), **shape):
    from dataclasses import replace

    from repro.cluster import ClioCluster
    from repro.params import ClioParams

    return ClioCluster(params=replace(ClioParams.prototype(), qos=QOS),
                       seed=0, mn_capacity=64 * (1 << 20), layers=layers,
                       **shape)


def test_qos_layer_installs_a_shaper_per_mn_downlink():
    cluster = qos_cluster(num_cns=2, num_mns=2)
    assert set(cluster.qos_shapers) == {"mn0", "mn1"}
    switch = cluster.topology.switches[0]
    for name, shaper in cluster.qos_shapers.items():
        assert switch.shaper_for(name) is shaper
        assert shaper.qos is QOS
    assert switch.shaper_for("cn0") is None
    # Tenants in params alone build nothing: the layer is the opt-in.
    bare = qos_cluster(layers=(), num_cns=2)
    assert bare.qos_shapers == {}
    assert bare.topology.switches[0].shaper_for("mn0") is None


def test_enable_qos_requires_tenants():
    from repro.cluster import ClioCluster
    from repro.params import ClioParams

    with pytest.raises(ValueError, match="TenantConfig"):
        ClioCluster(params=ClioParams.prototype(), seed=0,
                    mn_capacity=64 * (1 << 20), layers=("qos",))


def test_switch_exposes_per_egress_queue_depth():
    """The satellite fix: every attached egress queue has a depth gauge
    under the switch's scope, shaper backlog included."""
    cluster = qos_cluster(num_cns=2)
    snapshot = cluster.metrics.snapshot()
    for node in ("cn0", "cn1", "mn0"):
        assert f"switch.tor.queue.{node}.depth" in snapshot
    shaper = cluster.qos_shapers["mn0"]
    for label in range(16):
        shaper.send(packet("cn1", label=label))
    depth = cluster.topology.switches[0].egress_queue_depth("mn0")
    assert depth >= shaper.backlog > 0
    assert cluster.metrics.snapshot()["switch.tor.queue.mn0.depth"] == depth
