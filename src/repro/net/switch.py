"""ToR switch and cluster topology.

The switch has one downlink per attached node; an arriving packet pays the
forwarding latency, then queues on its destination's downlink.  Incast to
the MN therefore shows up as queueing delay on the MN's downlink — which
is precisely the RTT inflation CLib's congestion window reacts to.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Optional

from repro.net.link import Link
from repro.net.packet import Packet
from repro.sim import Environment
from repro.sim.rng import RandomStream
from repro.params import NetworkParams
from repro.telemetry.metrics import MetricsRegistry, StatsView

Deliver = Callable[[Packet], None]


class Switch:
    """Output-queued ToR switch."""

    def __init__(self, env: Environment, forward_ns: int,
                 registry: Optional[MetricsRegistry] = None,
                 scope: str = "switch.tor"):
        self.env = env
        self.forward_ns = forward_ns
        self._downlinks: dict[str, Link] = {}
        # Where packets for unattached destinations go: a rack ToR's spine
        # uplink.  None (the star's lone switch) counts them unroutable.
        self.default_route: Optional[Link] = None
        # Per-egress shapers (repro.net.qos), installed by the cluster's
        # "qos" layer; empty otherwise, and _forward never consults one.
        self._shapers: dict[str, object] = {}
        self.packets_forwarded = 0
        self.unroutable = 0
        self.metrics = (registry if registry is not None
                        else MetricsRegistry()).scope(scope)
        self._stats = StatsView({
            "packets_forwarded": self.metrics.counter(
                "packets_forwarded", fn=lambda: self.packets_forwarded),
            "unroutable": self.metrics.counter(
                "unroutable", fn=lambda: self.unroutable),
        })

    def stats(self) -> dict:
        return self._stats.snapshot()

    def attach(self, node: str, downlink: Link) -> None:
        if node in self._downlinks:
            raise ValueError(f"node {node!r} already attached")
        self._downlinks[node] = downlink
        # Per-egress-queue depth, under the switch's own scope (the link
        # has a gauge too, but only the switch can add shaper backlog —
        # and `repro metrics` readers want all egress queues in one
        # place, keyed by the attached node).
        self.metrics.gauge(f"queue.{node}.depth",
                           "packets queued at this egress (link + shaper)",
                           fn=lambda n=node: self.egress_queue_depth(n))

    def install_shaper(self, node: str, shaper) -> None:
        """Route ``node``'s egress through a per-tenant shaper."""
        if node not in self._downlinks:
            raise KeyError(f"node {node!r} not attached")
        self._shapers[node] = shaper

    def shaper_for(self, node: str):
        return self._shapers.get(node)

    def ingress(self, packet: Packet) -> None:
        """Receive a packet from any uplink and forward it."""
        self.env.schedule_callback(self.forward_ns,
                                   partial(self._forward, packet))

    def _forward(self, packet: Packet) -> None:
        downlink = self._downlinks.get(packet.header.dst)
        if downlink is None:
            downlink = self.default_route
            if downlink is None:
                self.unroutable += 1
                return
        self.packets_forwarded += 1
        if self._shapers:
            # Shapers only ever sit in front of attached nodes' egress.
            shaper = self._shapers.get(packet.header.dst)
            if shaper is not None:
                shaper.send(packet)
                return
        downlink.send(packet)

    def downlink_queue_depth(self, node: str) -> int:
        return self._downlinks[node].queue_depth

    def egress_queue_depth(self, node: str) -> int:
        """Link serializer queue plus any shaper backlog for ``node``."""
        depth = self._downlinks[node].queue_depth
        shaper = self._shapers.get(node)
        if shaper is not None:
            depth += shaper.backlog
        return depth


class Topology:
    """A star topology: every node hangs off one ToR switch.

    Nodes register a name, a receive callback, and a port rate; the
    topology builds the uplink (node -> switch) and downlink (switch ->
    node) pair and exposes ``send`` for node-to-node packet transfer.
    """

    def __init__(self, env: Environment, params: NetworkParams,
                 rng: Optional[RandomStream] = None,
                 registry: Optional[MetricsRegistry] = None):
        self.env = env
        self.params = params
        self.rng = rng or RandomStream(0, "net")
        self.registry = registry if registry is not None else MetricsRegistry()
        self.switch = Switch(env, params.switch_forward_ns,
                             registry=self.registry)
        #: The switches nodes attach to (same accessor on RackTopology).
        self.switches = [self.switch]
        self._uplinks: dict[str, Link] = {}
        self._receivers: dict[str, Deliver] = {}

    def add_node(self, name: str, receive: Deliver,
                 port_rate_bps: Optional[int] = None,
                 node_env: Optional[Environment] = None) -> None:
        """Attach a node; ``port_rate_bps`` defaults to the CN NIC rate.

        ``node_env`` is the node's own environment.  Under the partitioned
        engine it is the node's :class:`~repro.sim.Partition`: the uplink's
        serializer then lives with the node while its delivery fires on the
        switch tier's wheel (and vice versa for the downlink), and the link
        propagation delay is declared as the conservative lookahead edge
        between the two logical processes.  In a flat environment this
        changes nothing.
        """
        if name in self._uplinks:
            raise ValueError(f"node {name!r} already exists")
        rate = port_rate_bps or self.params.cn_nic_rate_bps
        if node_env is None:
            node_env = self.env
        self._receivers[name] = receive
        self._uplinks[name] = Link(
            node_env, f"{name}->tor", rate, self.params.propagation_ns,
            deliver=self.switch.ingress, rng=self.rng.fork(f"up/{name}"),
            loss_rate=self.params.loss_rate,
            corruption_rate=self.params.corruption_rate,
            jitter_ns=self.params.jitter_ns, registry=self.registry,
            deliver_env=self.env)
        downlink = Link(
            self.env, f"tor->{name}", rate, self.params.propagation_ns,
            deliver=lambda packet, _name=name: self._receivers[_name](packet),
            rng=self.rng.fork(f"down/{name}"),
            loss_rate=self.params.loss_rate,
            corruption_rate=self.params.corruption_rate,
            jitter_ns=self.params.jitter_ns, registry=self.registry,
            deliver_env=node_env)
        self.switch.attach(name, downlink)
        self._declare_lookahead(node_env)

    def _declare_lookahead(self, node_env: Environment) -> None:
        """Register link propagation as the node<->switch lookahead edge.

        A no-op unless both ends are partitions of the same
        :class:`~repro.sim.PartitionedEnvironment`.  The edge is the
        propagation delay plus the minimum one-byte serialization time —
        nothing a sender does *now* can reach the other side sooner.
        """
        if node_env is self.env:
            return
        parent = getattr(self.env, "parent", None)
        if parent is None or getattr(node_env, "parent", None) is not parent:
            return
        lookahead = self.params.propagation_ns + 1
        parent.declare_lookahead(node_env, self.env, lookahead)
        parent.declare_lookahead(self.env, node_env, lookahead)

    def send(self, packet: Packet) -> None:
        """Inject a packet at its source node's uplink."""
        uplink = self._uplinks.get(packet.header.src)
        if uplink is None:
            raise KeyError(f"unknown source node {packet.header.src!r}")
        uplink.send(packet)

    def node_names(self) -> list[str]:
        return sorted(self._uplinks)

    def uplink(self, name: str) -> Link:
        return self._uplinks[name]

    def downlink(self, name: str) -> Link:
        return self.switch._downlinks[name]

    def links_for(self, name: str) -> tuple[Link, Link]:
        """(uplink, downlink) pair of a node, for fault injection."""
        return self.uplink(name), self.downlink(name)

    def all_links(self) -> list[Link]:
        """Every link in the topology (uplinks then downlinks, by name)."""
        links = [self._uplinks[n] for n in sorted(self._uplinks)]
        links += [self.switch._downlinks[n]
                  for n in sorted(self.switch._downlinks)]
        return links

    def set_tracer(self, tracer) -> None:
        """Enable (or with ``None``, disable) span tracing on every link."""
        for link in self.all_links():
            link.set_tracer(tracer)

    def set_node_up(self, name: str, up: bool) -> None:
        """Cut or restore both directions of a node's cable."""
        for link in self.links_for(name):
            if up:
                link.set_up()
            else:
                link.set_down()
