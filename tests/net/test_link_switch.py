"""Tests for links, the switch, and the star topology."""

import pytest

from repro.net.link import Link
from repro.net.packet import ClioHeader, Packet, PacketType
from repro.net.switch import Topology
from repro.params import GBPS, NetworkParams
from repro.sim import Environment
from repro.sim.rng import RandomStream


def make_packet(src="a", dst="b", wire_bytes=64, request_id=1):
    header = ClioHeader(src=src, dst=dst, request_id=request_id,
                        packet_type=PacketType.READ)
    return Packet(header=header, wire_bytes=wire_bytes)


def test_link_delivers_after_serialization_and_propagation():
    env = Environment()
    received = []
    link = Link(env, "l", rate_bps=10 * GBPS, propagation_ns=200,
                deliver=lambda p: received.append((p, env.now)))
    link.send(make_packet(wire_bytes=1250))   # 1250B at 10Gbps = 1000ns
    env.run()
    packet, when = received[0]
    assert when == 1000 + 200


def test_link_serializes_fifo():
    env = Environment()
    received = []
    link = Link(env, "l", rate_bps=10 * GBPS, propagation_ns=0,
                deliver=lambda p: received.append((p.header.request_id, env.now)))
    link.send(make_packet(wire_bytes=1250, request_id=1))
    link.send(make_packet(wire_bytes=1250, request_id=2))
    env.run()
    assert [r[0] for r in received] == [1, 2]
    assert received[1][1] - received[0][1] == 1000  # back-to-back serialization


def test_link_queue_builds_under_load():
    env = Environment()
    link = Link(env, "l", rate_bps=1 * GBPS, propagation_ns=0,
                deliver=lambda p: None)
    for index in range(10):
        link.send(make_packet(wire_bytes=1250, request_id=index))
    env.run(until=1)
    assert link.queue_depth > 0


def test_link_state_is_bounded_by_the_backlog():
    """Nothing per packet outlives the packet: 10 000 sends spread over
    simulated time leave only the packets still on the serializer (plus
    the one just finished) in the link's books."""
    env = Environment()
    link = Link(env, "l", rate_bps=10 * GBPS, propagation_ns=200,
                deliver=lambda p: None)

    def sender():
        for index in range(10_000):
            link.send(make_packet(wire_bytes=1250, request_id=index))
            serializing = sum(done > env.now for done in link._completions)
            assert len(link._completions) <= serializing + 1
            # 1000 ns each on the wire: bursts of four, then room to drain.
            yield env.timeout(0 if index % 10 < 3 else 2_000)

    env.run(until=env.process(sender()))
    assert link.packets_sent == 10_000
    assert len(link._completions) <= 4


def test_queue_depth_is_a_pure_read_and_matches_the_pruning_gauge():
    """``queue_depth`` against the gauge it replaced (prune completions
    <= now on read, report what is left minus the one serializing), probed
    through a bursty script; reading it must change nothing."""
    env = Environment()
    link = Link(env, "l", rate_bps=1 * GBPS, propagation_ns=50,
                deliver=lambda p: None)
    reference = []                  # the old gauge's transmit-complete times
    probes = []

    def reference_depth():
        while reference and reference[0] <= env.now:
            reference.pop(0)
        return len(reference) - 1 if reference else 0

    def probe():
        before = list(link._completions)
        assert link.queue_depth == link.queue_depth == reference_depth()
        assert list(link._completions) == before
        probes.append(link.queue_depth)

    def script():
        request_id = 0
        for burst, gap in [(1, 0), (10, 3_000), (0, 1), (4, 100_000),
                           (25, 10_000), (1, 9_999), (0, 400_000), (3, 0)]:
            for _ in range(burst):
                start = max(env.now, reference[-1] if reference else 0)
                reference.append(start + link.transmit_ns(1250))
                link.send(make_packet(wire_bytes=1250, request_id=request_id))
                request_id += 1
                probe()
            yield env.timeout(gap)
            probe()

    env.run(until=env.process(script()))
    assert max(probes) == 29 and probes[-1] == 2 and 0 in probes


def test_link_loss_drops_packets():
    env = Environment()
    received = []
    link = Link(env, "l", rate_bps=100 * GBPS, propagation_ns=0,
                deliver=received.append, rng=RandomStream(1, "lossy"),
                loss_rate=0.5)
    for index in range(200):
        link.send(make_packet(request_id=index))
    env.run()
    assert link.packets_dropped > 50
    assert len(received) == 200 - link.packets_dropped


def test_link_corruption_marks_packets():
    env = Environment()
    received = []
    link = Link(env, "l", rate_bps=100 * GBPS, propagation_ns=0,
                deliver=received.append, rng=RandomStream(2, "noisy"),
                corruption_rate=0.3)
    for index in range(200):
        link.send(make_packet(request_id=index))
    env.run()
    corrupt = [p for p in received if p.corrupt]
    assert len(corrupt) == link.packets_corrupted
    assert corrupt


def test_link_jitter_can_reorder_delivery():
    env = Environment()
    received = []
    link = Link(env, "l", rate_bps=100 * GBPS, propagation_ns=500,
                deliver=lambda p: received.append(p.header.request_id),
                rng=RandomStream(3, "jitter"), jitter_ns=2000)
    for index in range(50):
        link.send(make_packet(wire_bytes=64, request_id=index))
    env.run()
    assert received != sorted(received)   # out-of-order delivery occurred


class _DelayRecorder:
    """A delivery wheel that records each packet's delay, firing none."""

    def __init__(self):
        self.delays = []

    def schedule_callback(self, delay, fn):
        self.delays.append(delay)


@pytest.mark.parametrize("jitter_ns", [1, 2, 3, 120, 127, 128, 2000])
def test_link_jitter_draws_are_the_streams_uniform_ints(jitter_ns):
    """The link binds its jitter span, bit width and ``getrandbits`` once;
    its draws are still ``uniform_int(0, jitter_ns)``'s, rejection loop
    included, at and around the powers of two."""
    delays = {}
    for jitter in (0, jitter_ns):
        recorder = _DelayRecorder()
        link = Link(Environment(), "l", rate_bps=100 * GBPS,
                    propagation_ns=500, deliver=lambda packet: None,
                    rng=RandomStream(7, "jitter"), jitter_ns=jitter,
                    deliver_env=recorder)
        for index in range(10_000):
            link.send(make_packet(request_id=index))
        delays[jitter] = recorder.delays
    stream = RandomStream(7, "jitter")
    assert [late - base for base, late in zip(delays[0], delays[jitter_ns])
            ] == [stream.uniform_int(0, jitter_ns) for _ in range(10_000)]


@pytest.mark.parametrize("kwargs", [
    {"loss_rate": -0.01},
    {"loss_rate": 1.01},
    {"corruption_rate": -0.5},
    {"corruption_rate": 2.0},
    {"jitter_ns": -1},
])
def test_link_rejects_bad_rates_and_jitter(kwargs):
    """A fabric's links take these from NetworkParams, which rejects
    them where they are declared."""
    with pytest.raises(ValueError, match=f"NetworkParams.{[*kwargs][0]}"):
        Topology(Environment(), NetworkParams(**kwargs))


@pytest.mark.parametrize("kwargs", [
    {"loss_rate": 0.0}, {"loss_rate": 1.0},
    {"corruption_rate": 0.0}, {"corruption_rate": 1.0},
    {"jitter_ns": 0},
])
def test_link_accepts_boundary_rates(kwargs):
    env = Environment()
    Link(env, "l", rate_bps=1 * GBPS, propagation_ns=0,
         deliver=lambda p: None, **kwargs)


def test_link_down_drops_silently_and_counts():
    env = Environment()
    received = []
    link = Link(env, "l", rate_bps=100 * GBPS, propagation_ns=0,
                deliver=received.append)
    link.send(make_packet(request_id=1))
    link.set_down()
    assert not link.up
    for index in range(5):
        link.send(make_packet(request_id=10 + index))
    link.set_up()
    link.send(make_packet(request_id=2))
    env.run()
    # Only the packets sent while up arrive; downed sends never schedule
    # a delivery and are counted separately from random loss.
    assert [p.header.request_id for p in received] == [1, 2]
    assert link.packets_dropped_down == 5
    assert link.packets_dropped == 0
    assert link.packets_sent == 2


# The surface every fabric shape shares.  Each test below runs as written
# on a star (``tors=None``) and again, through
# ``test_shared_surface_holds_under_a_spine``, on one and on two ToRs
# under a spine.  Nodes are named so that n0 and n1 (cn0 and mn1) sit on
# different ToRs whenever there are two.


def test_topology_set_node_up_covers_both_directions(tors=None):
    env = Environment()
    params = NetworkParams(jitter_ns=0)
    topology = Topology(env, params, tors=tors)
    received = {"n0": [], "n1": []}
    topology.add_node("n0", received["n0"].append)
    topology.add_node("n1", received["n1"].append)
    topology.set_node_up("n1", False)
    uplink, downlink = topology.links_for("n1")
    assert not uplink.up and not downlink.up
    topology.send(make_packet(src="n0", dst="n1"))   # dropped at n1's downlink
    topology.send(make_packet(src="n1", dst="n0"))   # dropped at n1's uplink
    env.run()
    assert not received["n0"] and not received["n1"]
    topology.set_node_up("n1", True)
    topology.send(make_packet(src="n0", dst="n1"))
    env.run()
    assert len(received["n1"]) == 1


def test_topology_routes_between_nodes(tors=None):
    env = Environment()
    params = NetworkParams(jitter_ns=0)
    topology = Topology(env, params, tors=tors)
    received = {"n0": [], "n1": []}
    topology.add_node("n0", received["n0"].append)
    topology.add_node("n1", received["n1"].append)
    topology.send(make_packet(src="n0", dst="n1"))
    env.run()
    assert len(received["n1"]) == 1
    assert not received["n0"]


def test_topology_unroutable_counted(tors=None):
    """Once, wherever the search ends: the star's ToR, else the spine."""
    env = Environment()
    topology = Topology(env, NetworkParams(), tors=tors)
    topology.add_node("n0", lambda p: None)
    topology.send(make_packet(src="n0", dst="ghost"))
    env.run()
    last_hop = topology.spine or topology.switches[0]
    assert last_hop.unroutable == 1
    assert sum(tor.unroutable for tor in topology.switches) == (
        1 if tors is None else 0)


def test_topology_unknown_source_rejected(tors=None):
    env = Environment()
    topology = Topology(env, NetworkParams(), tors=tors)
    with pytest.raises(KeyError):
        topology.send(make_packet(src="ghost", dst="n0"))


def test_topology_duplicate_node_rejected(tors=None):
    env = Environment()
    topology = Topology(env, NetworkParams(), tors=tors)
    topology.add_node("n0", lambda p: None)
    with pytest.raises(ValueError):
        topology.add_node("n0", lambda p: None)


def test_slow_mn_port_is_bottleneck(tors=None):
    """Traffic into a 10 Gbps MN port queues at its ToR's downlink."""
    env = Environment()
    params = NetworkParams(jitter_ns=0)
    topology = Topology(env, params, tors=tors)
    arrivals = []
    topology.add_node("cn0", lambda p: None)                 # 40 Gbps
    topology.add_node("mn1", lambda p: arrivals.append(env.now),
                      port_rate_bps=10 * GBPS)
    for index in range(10):
        topology.send(make_packet(src="cn0", dst="mn1", wire_bytes=1250,
                                  request_id=index))
    env.run()
    # At 10 Gbps each 1250B packet takes 1000ns; arrivals pace at >=1000ns.
    gaps = [b - a for a, b in zip(arrivals, arrivals[1:])]
    assert len(arrivals) == 10
    assert all(gap >= 1000 for gap in gaps)


def test_zero_port_rate_reaches_the_links_own_check(tors=None):
    """``0`` is a rate, not "use the default": it must not silently
    become the 40 Gbps CN NIC rate."""
    topology = Topology(Environment(), NetworkParams(), tors=tors)
    with pytest.raises(ValueError, match="rate must be positive"):
        topology.add_node("n0", lambda p: None, port_rate_bps=0)


@pytest.mark.parametrize("tors", (1, 2))
@pytest.mark.parametrize("shared", (
    test_topology_set_node_up_covers_both_directions,
    test_topology_routes_between_nodes,
    test_topology_unroutable_counted,
    test_topology_unknown_source_rejected,
    test_topology_duplicate_node_rejected,
    test_slow_mn_port_is_bottleneck,
    test_zero_port_rate_reaches_the_links_own_check,
), ids=lambda test: test.__name__)
def test_shared_surface_holds_under_a_spine(shared, tors):
    shared(tors)
