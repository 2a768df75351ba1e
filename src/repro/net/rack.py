"""Multi-switch rack fabric: ToR switches under a spine.

The single-switch :class:`~repro.net.switch.Topology` stops scaling
around a dozen boards — every packet in the rack serializes through one
forwarding loop, and under the partitioned engine the whole fabric is
one logical process.  The rack topology splits the fabric the way a real
rack does:

* each node (CN, CBoard, cache directory) hangs off one of ``tors`` ToR
  switches, chosen round-robin from the trailing digits of its name;
* ToRs connect to a single spine switch over dedicated links, so a
  cross-ToR packet takes node -> ToR -> spine -> ToR -> node and pays
  three forwarding delays instead of one;
* same-ToR traffic turns around at the ToR and never touches the spine;
* incast concentrates on the destination's ToR downlink — per-ToR incast
  queues, not one shared queue for the rack.

Under the partitioned engine every ToR and the spine can own its own
logical process; the link propagation delay on every node<->ToR *and*
ToR<->spine edge is declared as conservative PDES lookahead, which is
what lets a 64-board run actually parallelize instead of degenerating to
lockstep around a single switch LP.

The class mirrors the :class:`Topology` surface (``add_node``, ``send``,
``links_for``, ``set_node_up``, ...) so clusters, fault injectors, and
tracers work against either interchangeably.
"""

from __future__ import annotations

import re
from typing import Optional

from repro.net.link import Link
from repro.net.packet import Packet
from repro.net.switch import Deliver, Switch
from repro.sim import Environment
from repro.sim.rng import RandomStream
from repro.params import NetworkParams
from repro.telemetry.metrics import MetricsRegistry

_TRAILING_DIGITS = re.compile(r"(\d+)$")


class SpineSwitch(Switch):
    """Spine: routes each destination down the link to its ToR."""

    def __init__(self, env: Environment, forward_ns: int,
                 registry: Optional[MetricsRegistry] = None,
                 scope: str = "rack.spine"):
        super().__init__(env, forward_ns, registry=registry, scope=scope)
        self._routes: dict[str, Link] = {}   # dst node -> spine->ToR link

    def add_route(self, node: str, link: Link) -> None:
        if node in self._routes:
            raise ValueError(f"route for {node!r} already exists")
        self._routes[node] = link

    def _forward(self, packet: Packet) -> None:
        link = self._routes.get(packet.header.dst)
        if link is None:
            self.unroutable += 1
            return
        self.packets_forwarded += 1
        link.send(packet)


class RackTopology:
    """ToR + spine fabric with the single-switch ``Topology`` surface.

    ``tor_envs``/``spine_env`` place each switch tier on its own
    environment (under the partitioned engine, its own partition); they
    default to ``env`` so a flat run needs no extra wiring.  Inter-switch
    links are built eagerly at construction, node links as nodes attach.
    """

    def __init__(self, env: Environment, params: NetworkParams,
                 tors: int = 2,
                 rng: Optional[RandomStream] = None,
                 registry: Optional[MetricsRegistry] = None,
                 tor_envs: Optional[list[Environment]] = None,
                 spine_env: Optional[Environment] = None):
        if tors < 1:
            raise ValueError(f"need at least one ToR, got {tors}")
        if tor_envs is not None and len(tor_envs) != tors:
            raise ValueError(
                f"tor_envs has {len(tor_envs)} entries for {tors} ToRs")
        self.env = env
        self.params = params
        self.tors = tors
        self.rng = rng or RandomStream(0, "rack")
        self.registry = registry if registry is not None else MetricsRegistry()
        self._tor_envs = tor_envs or [env] * tors
        self._spine_env = spine_env if spine_env is not None else env
        spine_rate = params.switch_rate_bps
        self.spine = SpineSwitch(self._spine_env, params.switch_forward_ns,
                                 registry=self.registry)
        #: The ToRs, i.e. the switches nodes attach to.  A destination
        #: without a local downlink lives under another ToR, so each ToR's
        #: default route is its uplink to the spine.
        self.switches: list[Switch] = []
        self._spine_downlinks: list[Link] = []   # spine -> ToR i
        for i in range(tors):
            tor_env = self._tor_envs[i]
            tor = Switch(tor_env, params.switch_forward_ns,
                         registry=self.registry, scope=f"rack.tor{i}")
            tor.default_route = Link(
                tor_env, f"tor{i}->spine", spine_rate,
                params.propagation_ns, deliver=self.spine.ingress,
                rng=self.rng.fork(f"up/tor{i}"),
                loss_rate=params.loss_rate,
                corruption_rate=params.corruption_rate,
                jitter_ns=params.jitter_ns, registry=self.registry,
                deliver_env=self._spine_env)
            down = Link(
                self._spine_env, f"spine->tor{i}", spine_rate,
                params.propagation_ns, deliver=tor.ingress,
                rng=self.rng.fork(f"down/tor{i}"),
                loss_rate=params.loss_rate,
                corruption_rate=params.corruption_rate,
                jitter_ns=params.jitter_ns, registry=self.registry,
                deliver_env=tor_env)
            self.switches.append(tor)
            self._spine_downlinks.append(down)
            self._declare_lookahead(tor_env, self._spine_env)
        self._uplinks: dict[str, Link] = {}
        self._downlinks: dict[str, Link] = {}
        self._receivers: dict[str, Deliver] = {}
        self._node_tor: dict[str, int] = {}

    # -- placement of nodes onto ToRs ----------------------------------------------

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
        """Attach a node to its ToR (same contract as ``Topology``)."""
        if name in self._uplinks:
            raise ValueError(f"node {name!r} already exists")
        rate = port_rate_bps or self.params.cn_nic_rate_bps
        if node_env is None:
            node_env = self.env
        index = self.tor_index(name)
        tor = self.switches[index]
        tor_env = self._tor_envs[index]
        self._receivers[name] = receive
        self._node_tor[name] = index
        self._uplinks[name] = Link(
            node_env, f"{name}->tor{index}", rate,
            self.params.propagation_ns, deliver=tor.ingress,
            rng=self.rng.fork(f"up/{name}"),
            loss_rate=self.params.loss_rate,
            corruption_rate=self.params.corruption_rate,
            jitter_ns=self.params.jitter_ns, registry=self.registry,
            deliver_env=tor_env)
        downlink = Link(
            tor_env, f"tor{index}->{name}", rate,
            self.params.propagation_ns,
            deliver=lambda packet, _name=name: self._receivers[_name](packet),
            rng=self.rng.fork(f"down/{name}"),
            loss_rate=self.params.loss_rate,
            corruption_rate=self.params.corruption_rate,
            jitter_ns=self.params.jitter_ns, registry=self.registry,
            deliver_env=node_env)
        self._downlinks[name] = downlink
        tor.attach(name, downlink)
        self.spine.add_route(name, self._spine_downlinks[index])
        self._declare_lookahead(node_env, tor_env)

    def _declare_lookahead(self, a: Environment, b: Environment) -> None:
        """Link propagation as the conservative edge between two LPs.

        A no-op unless both ends are partitions of the same parent (same
        rule as ``Topology._declare_lookahead``); the edge is propagation
        plus the minimum one-byte serialization time, declared both ways.
        """
        if a is b:
            return
        parent = getattr(a, "parent", None)
        if parent is None or getattr(b, "parent", None) is not parent:
            return
        lookahead = self.params.propagation_ns + 1
        parent.declare_lookahead(a, b, lookahead)
        parent.declare_lookahead(b, a, lookahead)

    # -- Topology-compatible surface -------------------------------------------------

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
        """ToR<->spine links, ToR order, up before down."""
        links = []
        for i, tor in enumerate(self.switches):
            links.append(tor.default_route)
            links.append(self._spine_downlinks[i])
        return links

    def all_links(self) -> list[Link]:
        """Every link (node uplinks, node downlinks, then fabric)."""
        links = [self._uplinks[n] for n in sorted(self._uplinks)]
        links += [self._downlinks[n] for n in sorted(self._downlinks)]
        links += self.fabric_links()
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

    def stats(self) -> dict:
        """Forwarding counters for each tier (diagnostics)."""
        return {
            "spine": self.spine.stats(),
            "tors": [tor.stats() for tor in self.switches],
        }
