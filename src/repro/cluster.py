"""One-call cluster assembly: CNs + ToR switch + CBoard(s).

This is the entry point most examples and benchmarks use::

    cluster = ClioCluster(num_cns=2, layers=("verification",))
    thread = cluster.cn(0).process("mn0").thread()
    ...
    cluster.run(until=...)

A cluster is a value built once.  Like a CBoard's virtual-memory system
and network stack (paper section 4), its subsystems are fixed when it is
built: ``layers=`` names the opt-in ones and ``ClioParams`` configures
them; nothing is switched on, off or reconfigured mid-run.
"""

from __future__ import annotations

from typing import Optional

from repro.clib.client import ComputeNode
from repro.core.cboard import CBoard
from repro.net.switch import Topology
from repro.params import ClioParams
from repro.sim import Environment
from repro.sim.rng import RandomStream
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.spans import Tracer


class ClioCluster:
    """A star cluster: ``num_cns`` compute nodes and ``num_mns`` CBoards.

    ``layers`` lists the opt-in subsystems to build, by name, in any
    order: ``"health"`` (heartbeat board-health beliefs),
    ``"verification"`` (oracle + invariants), ``"caching"`` (CN hot-page
    cache, configured by ``params.cache``), ``"qos"`` (per-tenant egress
    shaping, configured by ``params.qos``) and ``"tracing"`` (span
    recording).  A rack cluster (``rack=``) always includes ``"health"``.

    With ``partitioned=True`` the cluster is built on the partitioned
    engine: every CBoard and CN owns its own event wheel (logical
    process) and the switch tier owns another.  The single-process
    partitioned scheduler is bit-identical to the flat engine on the
    same seed — same timestamps, same tie-breaks, same RNG draw order —
    so fingerprints and goldens carry over unchanged.
    """

    def __init__(self, params: Optional[ClioParams] = None, seed: int = 0,
                 num_cns: int = 1, num_mns: Optional[int] = None,
                 mn_capacity: Optional[int] = None,
                 page_size: Optional[int] = None,
                 partitioned: bool = False,
                 rack=None,
                 layers: tuple = ()):
        self.params = params or ClioParams.prototype()
        if (len(set(layers)) != len(layers)
                or not set(layers) <= set(self._LAYERS)):
            raise ValueError(f"layers must be distinct names from "
                             f"{tuple(self._LAYERS)}, got {layers!r}")
        rack_config = None
        if rack is not None:
            from repro.rack import RackConfig
            rack_config = (RackConfig(boards=rack) if isinstance(rack, int)
                           else rack)
            # The rack config owns the board count: in-service boards
            # plus the pre-cabled spares membership can add later.
            rack_boards = rack_config.boards + rack_config.spares
            if num_mns not in (None, rack_boards):
                raise ValueError(
                    f"num_mns={num_mns} disagrees with the rack config's "
                    f"{rack_boards} boards (in service + spares)")
            num_mns = rack_boards
            # Rack placement and eviction are belief-driven, so a rack
            # tier always runs over the heartbeat monitor.
            layers = ("health", *layers)
        elif num_mns is None:
            num_mns = 1
        if num_cns < 1 or num_mns < 1:
            raise ValueError("need at least one CN and one MN")
        # Flat, every switch tier shares the one environment (the
        # topology's default); partitioned, each gets its own wheel.
        tor_envs = spine_env = None
        if partitioned:
            from repro.sim import PartitionedEnvironment
            self.env = fabric_env = PartitionedEnvironment()
            if rack_config is not None:
                tor_envs = [self.env.partition(f"tor{i}")
                            for i in range(rack_config.tors)]
                spine_env = self.env.partition("spine")
            else:
                fabric_env = self.env.partition("switch")
        else:
            self.env = fabric_env = Environment()
        self.rng = RandomStream(seed, "cluster")
        # One shared metrics namespace for the whole cluster; components
        # register themselves under their own prefixes at construction.
        self.metrics = MetricsRegistry()
        # A star unless there is a rack config: its ToRs under a spine.
        self.topology = Topology(
            fabric_env, self.params.network, rng=self.rng.fork("net"),
            registry=self.metrics, tors=rack_config and rack_config.tors,
            tor_envs=tor_envs, spine_env=spine_env)
        self.mns: list[CBoard] = []
        for index in range(num_mns):
            board_env = (self.env.partition(f"mn{index}") if partitioned
                         else self.env)
            board = CBoard(board_env, self.params, name=f"mn{index}",
                           dram_capacity=mn_capacity, page_size=page_size,
                           registry=self.metrics)
            board.attach(self.topology)
            self.mns.append(board)
        self.cns: list[ComputeNode] = [
            ComputeNode(self.env.partition(f"cn{index}") if partitioned
                        else self.env,
                        f"cn{index}", self.topology, self.params,
                        default_page_size=page_size, registry=self.metrics)
            for index in range(num_cns)
        ]
        # The rack tier (ring + controller + membership) hangs off the
        # boards just built; spares stay out of service until added.
        self.rack = None
        if rack_config is not None:
            from repro.rack import RackTier
            self.rack = RackTier(self, rack_config)
        # The opt-in layers.  Off, a layer does not exist: no component
        # holds a handle to it, no event is scheduled for it and no RNG
        # is drawn, so a bare run stays bit-identical to the goldens.
        # They are built here and only here, in table order whatever
        # order ``layers`` lists them in, then handed out in one place.
        self.health = None
        self.verifier = None
        self.cache_dir = None
        self.qos_shapers: dict[str, object] = {}
        self.tracer = None
        for name, build in self._LAYERS.items():
            if name in layers:
                build(self)
        self._wire()

    # -- the opt-in layers ----------------------------------------------------------

    def _build_health(self) -> None:
        """Heartbeat board-health tracking (:mod:`repro.faults.health`):
        the one layer that schedules events of its own, a sweep every
        100 us from time zero."""
        from repro.faults.health import HealthMonitor
        self.health = HealthMonitor(self.env, self.mns, registry=self.metrics)
        self.health.start()

    def _build_verification(self) -> None:
        """Oracle + invariants + history capture (:mod:`repro.verify`).
        Passive like tracing: hooks record and inspect state inside
        existing callbacks (``tests/verify/test_chaos_oracle.py``)."""
        from repro.verify import ClusterVerifier
        self.verifier = ClusterVerifier(self)

    def _build_caching(self) -> None:
        """CN-side coherent hot-page caching (:mod:`repro.cache`) from
        ``params.cache``: the directory (a ``cachedir`` node on the
        switch tier) and one PageCache per CN, which every CLib data op
        then routes through."""
        from repro.cache import CacheDirectory, PageCache
        line_bytes = self.params.cache.line_bytes
        page_size = self.mn.page_spec.page_size
        if page_size % line_bytes:
            raise ValueError(f"cache line_bytes ({line_bytes}) must divide "
                             f"the boards' page size ({page_size})")
        # The directory lives with the (first) ToR switch.
        self.cache_dir = CacheDirectory(self.topology.switches[0].env,
                                        self.topology, self.params,
                                        registry=self.metrics)
        for node in self.cns:
            node.cache = PageCache(node, registry=self.metrics)

    def _build_qos(self) -> None:
        """Per-tenant egress shaping (:mod:`repro.net.qos`) from
        ``params.qos``: one EgressShaper in front of every MN downlink,
        the port incast congests.  Packets from nodes in no tenant
        bypass shaping."""
        from repro.net.qos import EgressShaper
        config = self.params.qos
        if not config.tenants:
            raise ValueError('the "qos" layer needs at least one '
                             "TenantConfig in params.qos.tenants")
        topology = self.topology
        for board in self.mns:
            switch = topology.switches[topology.tor_index(board.name)]
            shaper = EgressShaper(switch.env, board.name,
                                  topology.downlink(board.name), config,
                                  registry=self.metrics)
            switch.install_shaper(board.name, shaper)
            self.qos_shapers[board.name] = shaper

    def _build_tracing(self) -> None:
        """Span recording (:mod:`repro.telemetry.spans`): never schedules
        an event or draws RNG, so a traced run keeps an untraced one's
        timestamps (``tests/telemetry/test_zero_cost.py``)."""
        self.tracer = Tracer(self.env)

    #: Layer name -> builder, in build order (the order every golden
    #: was recorded under).
    _LAYERS = {"health": _build_health, "verification": _build_verification,
               "caching": _build_caching, "qos": _build_qos,
               "tracing": _build_tracing}

    def _wire(self) -> None:
        """Hand every layer's handle to the components that consult it."""
        tracer, verifier = self.tracer, self.verifier
        for board in self.mns:
            board.set_tracer(tracer)
            board.verifier = board.slow_path.verifier = verifier
        for node in self.cns:
            node.transport.set_tracer(tracer)
            node.verifier = verifier
            if node.cache is not None:
                node.cache.set_tracer(tracer)
        self.topology.set_tracer(tracer)
        if self.health is not None:
            self.health.tracer = tracer
        if self.cache_dir is not None:
            self.cache_dir.set_tracer(tracer)
        if self.rack is not None:
            controller = self.rack.controller
            controller.health = self.health
            controller.verifier = verifier
            controller.cache_directory = self.cache_dir

    def enable_tracing(self) -> Tracer:
        """Attach the tracer to a cluster built without ``"tracing"``.

        The one late attach: the tracer is passive (see
        :meth:`_build_tracing`), so turning it on after warm-up — as
        ``benchmarks/e2e`` does to keep set-up spans out of its buffer —
        cannot move the simulation.  Every other layer is fixed at
        construction.  Idempotent.
        """
        if self.tracer is None:
            self._build_tracing()
            self._wire()
        return self.tracer

    def board(self, name: str) -> CBoard:
        """Memory node by name (fault schedules address boards by name)."""
        for board in self.mns:
            if board.name == name:
                return board
        raise KeyError(f"unknown board {name!r}")

    @property
    def mn(self) -> CBoard:
        """The first (often only) memory node."""
        return self.mns[0]

    def cn(self, index: int = 0) -> ComputeNode:
        return self.cns[index]

    def run(self, until=None):
        """Drive the simulation (see :meth:`repro.sim.Environment.run`).

        ``until`` is required: the CBoard's background processes (async
        buffer refill) run forever, so an open-ended run would never
        return.  Pass an event/process to wait for, or a deadline in ns.
        """
        if until is None:
            raise ValueError(
                "ClioCluster.run() needs `until` (an event or a time): "
                "background MN processes never drain the event queue")
        return self.env.run(until=until)

    def run_all(self, processes):
        """Run until every given simulation process completes."""
        gather = self.env.all_of(list(processes))
        return self.env.run(until=gather)

    def report(self) -> dict:
        """Cluster-wide health snapshot: each board's, each CN transport's
        and the health monitor's registry scope, plus each CN's windows."""
        return {
            "now_ns": self.env.now,
            "boards": {board.name: board.metrics.snapshot()
                       for board in self.mns},
            "cns": {
                node.name: {
                    **node.transport.metrics.snapshot(),
                    "cwnd": {
                        mn: controller.cwnd
                        for mn, controller in
                        node.transport._congestion.items()
                    },
                }
                for node in self.cns
            },
            "health": self.health.metrics.snapshot() if self.health else None,
        }
