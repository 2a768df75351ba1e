"""Switches and the fabric they form: one ToR, or ToRs under a spine.

A switch has one downlink per attached node; an arriving packet pays the
forwarding latency, then queues on its destination's downlink.  Incast to
the MN therefore shows up as queueing delay on the MN's downlink — which
is precisely the RTT inflation CLib's congestion window reacts to.

The fabric's shape is data.  The paper's testbed is a *star*: every node
on one ToR.  That stops scaling around a dozen boards — every packet
serializes through one forwarding loop, and under the partitioned engine
the whole fabric is one logical process — so ``Topology(..., tors=N)``
splits it the way a real rack does:

* each node (CN, CBoard, cache directory) hangs off one of ``tors`` ToR
  switches, chosen round-robin from the trailing digits of its name;
* ToRs connect to a single spine switch over dedicated links, so a
  cross-ToR packet takes node -> ToR -> spine -> ToR -> node and pays
  three forwarding delays instead of one;
* same-ToR traffic turns around at the ToR and never touches the spine;
* incast concentrates on the destination's ToR downlink — per-ToR incast
  queues, not one shared queue for the rack.

A star is that rack with one ToR and no spine.  Under the partitioned
engine every ToR and the spine can own its own event wheel; each link
fires its deliveries on the receiving end's wheel.
"""

from __future__ import annotations

import re
from functools import partial
from typing import Callable, Optional

from repro.net.link import Link
from repro.net.packet import Packet
from repro.sim import Environment
from repro.sim.rng import RandomStream
from repro.params import NetworkParams
from repro.telemetry.metrics import MetricsRegistry

Deliver = Callable[[Packet], None]

_TRAILING_DIGITS = re.compile(r"(\d+)$")


class Switch:
    """Output-queued switch: a ToR, or (routes only, no nodes) the spine."""

    def __init__(self, env: Environment, forward_ns: int,
                 registry: Optional[MetricsRegistry] = None,
                 scope: str = "switch.tor"):
        self.env = env
        self.forward_ns = forward_ns
        # Destination node -> egress link: an attached node's downlink,
        # or on the spine the link to the node's ToR.
        self._downlinks: dict[str, Link] = {}
        # Where packets for unlisted destinations go: a rack ToR's spine
        # uplink.  None (a star's lone switch, the spine) counts them
        # unroutable.
        self.default_route: Optional[Link] = None
        # Per-egress shapers (repro.net.qos), installed by the cluster's
        # "qos" layer; empty otherwise, and _forward never consults one.
        self._shapers: dict[str, object] = {}
        self.packets_forwarded = 0
        self.unroutable = 0
        self.metrics = (registry if registry is not None
                        else MetricsRegistry()).scope(scope)
        self.metrics.counter("packets_forwarded",
                             fn=lambda: self.packets_forwarded)
        self.metrics.counter("unroutable", fn=lambda: self.unroutable)

    def route(self, node: str, link: Link) -> None:
        """Forward packets for ``node`` onto ``link``."""
        if node in self._downlinks:
            raise ValueError(f"node {node!r} already attached")
        self._downlinks[node] = link

    def attach(self, node: str, downlink: Link) -> None:
        """Route ``node`` down its own port and gauge that egress queue."""
        self.route(node, downlink)
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

    def egress_queue_depth(self, node: str) -> int:
        """Link serializer queue plus any shaper backlog for ``node``."""
        depth = self._downlinks[node].queue_depth
        shaper = self._shapers.get(node)
        if shaper is not None:
            depth += shaper.backlog
        return depth


class Topology:
    """The fabric: a star (``tors=None``) or ``tors`` ToRs under a spine.

    Nodes register a name, a receive callback, and a port rate; the
    topology builds the uplink (node -> ToR) and downlink (ToR -> node)
    pair and exposes ``send`` for node-to-node packet transfer.

    ``tor_envs``/``spine_env`` place each switch tier on its own
    environment (under the partitioned engine, its own partition); they
    default to ``env`` so a flat run needs no extra wiring.  Inter-switch
    links are built eagerly at construction, node links as nodes attach.
    """

    def __init__(self, env: Environment, params: NetworkParams,
                 rng: Optional[RandomStream] = None,
                 registry: Optional[MetricsRegistry] = None,
                 tors: Optional[int] = None,
                 tor_envs: Optional[list[Environment]] = None,
                 spine_env: Optional[Environment] = None):
        star = tors is None
        self.tors = 1 if star else tors
        if self.tors < 1:
            raise ValueError(f"need at least one ToR, got {tors}")
        if tor_envs is not None and len(tor_envs) != self.tors:
            raise ValueError(
                f"tor_envs has {len(tor_envs)} entries for {self.tors} ToRs")
        self.env = env
        self.params = params
        self.rng = rng or RandomStream(0, "net" if star else "rack")
        self.registry = registry if registry is not None else MetricsRegistry()
        # What link and scope names call each ToR: the star's is "tor".
        self._labels = ["tor"] if star else [f"tor{i}" for i in range(tors)]
        tier = "switch" if star else "rack"
        if spine_env is None:
            spine_env = env
        self.spine: Optional[Switch] = None if star else Switch(
            spine_env, params.switch_forward_ns, registry=self.registry,
            scope="rack.spine")
        #: The ToRs, i.e. the switches nodes attach to.  Under a spine a
        #: destination without a local downlink lives under another ToR,
        #: so each ToR's default route is its uplink to the spine.
        self.switches: list[Switch] = []
        self._spine_downlinks: list[Link] = []   # spine -> ToR i
        for label, tor_env in zip(self._labels, tor_envs or [env] * self.tors):
            tor = Switch(tor_env, params.switch_forward_ns,
                         registry=self.registry, scope=f"{tier}.{label}")
            self.switches.append(tor)
            if star:
                continue
            tor.default_route = self._link(
                tor_env, f"{label}->spine", params.switch_rate_bps,
                self.spine.ingress, f"up/{label}", spine_env)
            self._spine_downlinks.append(self._link(
                spine_env, f"spine->{label}", params.switch_rate_bps,
                tor.ingress, f"down/{label}", tor_env))
        self._uplinks: dict[str, Link] = {}
        self._downlinks: dict[str, Link] = {}

    def _link(self, env: Environment, name: str, rate: int, deliver: Deliver,
              stream: str, deliver_env: Environment) -> Link:
        """One fabric link: the network params plus its own RNG fork."""
        params = self.params
        return Link(env, name, rate, params.propagation_ns, deliver=deliver,
                    rng=self.rng.fork(stream), loss_rate=params.loss_rate,
                    corruption_rate=params.corruption_rate,
                    jitter_ns=params.jitter_ns, registry=self.registry,
                    deliver_env=deliver_env)

    def tor_index(self, name: str) -> int:
        """ToR hosting ``name``: trailing digits round-robin, else ToR 0.

        ``mn0 mn1 mn2 ...`` and ``cn0 cn1 ...`` interleave across ToRs;
        digitless names (the cache directory) land on ToR 0.
        """
        match = _TRAILING_DIGITS.search(name)
        if match is None:
            return 0
        return int(match.group(1)) % self.tors

    def add_node(self, name: str, receive: Deliver,
                 port_rate_bps: Optional[int] = None,
                 node_env: Optional[Environment] = None) -> None:
        """Attach a node; ``port_rate_bps`` defaults to the CN NIC rate.

        ``node_env`` is the node's own environment.  Under the partitioned
        engine it is the node's :class:`~repro.sim.Partition`: the uplink's
        serializer then lives with the node while its delivery fires on its
        ToR's wheel (and vice versa for the downlink).  In a flat
        environment this changes nothing.
        """
        if name in self._uplinks:
            raise ValueError(f"node {name!r} already exists")
        rate = (self.params.cn_nic_rate_bps if port_rate_bps is None
                else port_rate_bps)
        if rate <= 0:   # an explicit port rate is an argument, not a field
            raise ValueError(f"rate must be positive, got {rate}")
        if node_env is None:
            node_env = self.env
        index = self.tor_index(name)
        tor, label = self.switches[index], self._labels[index]
        self._uplinks[name] = self._link(
            node_env, f"{name}->{label}", rate, tor.ingress, f"up/{name}",
            tor.env)
        self._downlinks[name] = self._link(
            tor.env, f"{label}->{name}", rate, receive, f"down/{name}",
            node_env)
        tor.attach(name, self._downlinks[name])
        if self.spine is not None:
            self.spine.route(name, self._spine_downlinks[index])

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
        return self._downlinks[name]

    def links_for(self, name: str) -> tuple[Link, Link]:
        """(uplink, downlink) pair of a node, for fault injection."""
        return self.uplink(name), self.downlink(name)

    def fabric_links(self) -> list[Link]:
        """ToR<->spine links, ToR order, up before down; none in a star."""
        return [link for tor, down in zip(self.switches, self._spine_downlinks)
                for link in (tor.default_route, down)]

    def all_links(self) -> list[Link]:
        """Every link (node uplinks, node downlinks, then fabric)."""
        links = [self._uplinks[n] for n in sorted(self._uplinks)]
        links += [self._downlinks[n] for n in sorted(self._downlinks)]
        return links + self.fabric_links()

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
