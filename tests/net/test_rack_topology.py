"""Tests for what only a fabric with a spine has: ToRs under a spine.

(The surface every shape shares is in ``test_link_switch.py``.)

The satellite acceptance story: per-link FIFO holds across the full
ToR -> spine -> ToR path (with jitter pinned to zero — jitter exists to
reorder), same-ToR traffic never touches the spine, and a two-ToR echo
workload is bit-identical flat vs partitioned.
"""

import hashlib

from repro.net.packet import ClioHeader, Packet, PacketType
from repro.net.switch import Topology
from repro.params import MB, NetworkParams
from repro.sim import Environment
from repro.sim.partition import PartitionedEnvironment
from repro.sim.rng import RandomStream


def quiet_params(**overrides):
    """No jitter, no loss: deterministic per-link ordering."""
    return NetworkParams(jitter_ns=0, loss_rate=0.0, corruption_rate=0.0,
                         **overrides)


def make_packet(src, dst, request_id, wire_bytes=256):
    header = ClioHeader(src=src, dst=dst, request_id=request_id,
                        packet_type=PacketType.READ)
    return Packet(header=header, wire_bytes=wire_bytes)


def build_rack(env, tors=2, nodes=("cn0", "cn1", "mn0", "mn1"),
               params=None, tor_envs=None, spine_env=None):
    topo = Topology(env, params or quiet_params(), tors=tors,
                    rng=RandomStream(7, "rack"),
                    tor_envs=tor_envs, spine_env=spine_env)
    inboxes = {name: [] for name in nodes}
    for name in nodes:
        topo.add_node(
            name,
            (lambda packet, _n=name: inboxes[_n].append(
                (packet.header.request_id, topo.env.now))),
            node_env=(tor_envs[topo.tor_index(name)]
                      if tor_envs is not None else None))
    return topo, inboxes


def test_node_placement_round_robins_on_trailing_digits():
    env = Environment()
    topo, _ = build_rack(env, tors=2)
    assert topo.tor_index("mn0") == 0
    assert topo.tor_index("mn1") == 1
    assert topo.tor_index("mn2") == 0
    assert topo.tor_index("cachedir") == 0   # digitless -> ToR 0


def test_a_star_is_one_tor_and_no_spine():
    topo = Topology(Environment(), quiet_params())
    topo.add_node("cn0", lambda packet: None)
    topo.add_node("mn1", lambda packet: None)
    assert topo.spine is None
    assert topo.fabric_links() == []
    assert len(topo.switches) == 1
    assert topo.tor_index("mn1") == 0
    assert topo.registry.names("rack") == []
    assert topo.switches[0].metrics.prefix == "switch.tor"
    assert [link.name for link in topo.all_links()] == [
        "cn0->tor", "mn1->tor", "tor->cn0", "tor->mn1"]


def test_a_one_tor_rack_still_has_its_spine():
    topo, _ = build_rack(Environment(), tors=1)
    assert topo.spine is not None
    assert [link.name for link in topo.fabric_links()] == [
        "tor0->spine", "spine->tor0"]


def test_cross_tor_path_keeps_per_link_fifo():
    """Ten packets cn0 (ToR 0) -> mn1 (ToR 1): four serialized hops,
    arrival order must equal send order with jitter off."""
    env = Environment()
    topo, inboxes = build_rack(env)
    for request_id in range(10):
        topo.send(make_packet("cn0", "mn1", request_id))
    env.run()
    assert [rid for rid, _ in inboxes["mn1"]] == list(range(10))
    # The path really went up the spine.
    assert topo.spine.packets_forwarded == 10
    assert topo.switches[0].packets_forwarded == 10
    assert topo.switches[1].packets_forwarded == 10


def test_same_tor_traffic_bypasses_the_spine():
    env = Environment()
    topo, inboxes = build_rack(env)
    for request_id in range(5):
        topo.send(make_packet("cn0", "mn0", request_id))   # both ToR 0
    env.run()
    assert [rid for rid, _ in inboxes["mn0"]] == list(range(5))
    assert topo.spine.packets_forwarded == 0
    assert topo.switches[1].packets_forwarded == 0


def test_cross_tor_costs_two_more_forwarding_hops():
    params = quiet_params()
    env = Environment()
    topo, inboxes = build_rack(env, params=params)
    topo.send(make_packet("cn0", "mn0", 1))     # same ToR
    topo.send(make_packet("cn0", "mn1", 2))     # cross ToR
    env.run()
    local_at = inboxes["mn0"][0][1]
    remote_at = inboxes["mn1"][0][1]
    # Two extra store-and-forward hops: two switch delays, two link
    # propagations, two serializations — strictly slower, and by at
    # least the two forwarding delays alone.
    assert remote_at >= local_at + 2 * params.switch_forward_ns


def test_incast_queues_on_destination_tor_downlink():
    env = Environment()
    topo, inboxes = build_rack(env, nodes=("cn0", "cn1", "cn2", "mn1"))
    # cn0 (ToR 0), cn1 (ToR 1), cn2 (ToR 0) all blast mn1 (ToR 1).
    for request_id in range(12):
        for src in ("cn0", "cn1", "cn2"):
            topo.send(make_packet(src, "mn1", request_id, wire_bytes=4096))
    env.run(until=10_000)
    assert topo.downlink("mn1").queue_depth > 0
    env.run()
    assert len(inboxes["mn1"]) == 36


def test_unroutable_packets_count_instead_of_crashing():
    env = Environment()
    topo, _ = build_rack(env)
    topo.switches[0].ingress(make_packet("cn0", "ghost", 1))
    env.run()
    assert topo.spine.unroutable == 1


def test_two_tor_echo_bit_identical_flat_vs_partitioned():
    """The golden echo: cn0 <-> mn1 across the spine, reply per request;
    the delivery log (request ids + timestamps) must be bit-identical
    on the flat and partitioned engines."""

    def run(partitioned):
        if partitioned:
            env = PartitionedEnvironment()
            tor_envs = [env.partition("tor0"), env.partition("tor1")]
            spine_env = env.partition("spine")
        else:
            env = Environment()
            tor_envs = spine_env = None
        topo = Topology(env, quiet_params(), tors=2,
                        rng=RandomStream(7, "rack"),
                        tor_envs=tor_envs, spine_env=spine_env)
        log = []

        def mn1_receive(packet):
            log.append(("mn1", packet.header.request_id, env.now))
            topo.send(make_packet("mn1", "cn0",
                                  packet.header.request_id + 100))

        def cn0_receive(packet):
            log.append(("cn0", packet.header.request_id, env.now))

        topo.add_node("cn0", cn0_receive,
                      node_env=tor_envs[0] if tor_envs else None)
        topo.add_node("mn1", mn1_receive,
                      node_env=tor_envs[1] if tor_envs else None)
        for request_id in range(20):
            topo.send(make_packet("cn0", "mn1", request_id))
        env.run()
        digest = hashlib.blake2b(repr(log).encode(),
                                 digest_size=16).hexdigest()
        return digest, log, topo.registry.snapshot("rack")

    flat_digest, flat_log, flat_stats = run(partitioned=False)
    pdes_digest, pdes_log, pdes_stats = run(partitioned=True)
    assert len(flat_log) == 40          # 20 requests + 20 echoes
    assert flat_digest == pdes_digest
    assert flat_stats == pdes_stats
