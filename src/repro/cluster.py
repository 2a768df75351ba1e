"""One-call cluster assembly: CNs + ToR switch + CBoard(s).

This is the entry point most examples and benchmarks use::

    cluster = ClioCluster(num_cns=2)
    thread = cluster.cn(0).process("mn0").thread()
    ...
    cluster.run()
"""

from __future__ import annotations

from typing import Optional

from repro.clib.client import ComputeNode
from repro.core.cboard import CBoard
from repro.net.switch import Topology
from repro.params import ClioParams
from repro.sim import Environment, PartitionedEnvironment
from repro.sim.rng import RandomStream
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.spans import Tracer


class ClioCluster:
    """A star cluster: ``num_cns`` compute nodes and ``num_mns`` CBoards.

    With ``partitioned=True`` the cluster is built on the partitioned
    engine: every CBoard and CN owns its own event wheel (logical
    process), the switch tier owns another, and link propagation delays
    become the conservative lookahead edges between them.  The
    single-process partitioned scheduler is bit-identical to the flat
    engine on the same seed — same timestamps, same tie-breaks, same RNG
    draw order — so fingerprints and goldens carry over unchanged.
    """

    def __init__(self, params: Optional[ClioParams] = None, seed: int = 0,
                 num_cns: int = 1, num_mns: int = 1,
                 mn_capacity: Optional[int] = None,
                 page_size: Optional[int] = None,
                 partitioned: bool = False,
                 rack=None,
                 alloc=None):
        if num_cns < 1 or num_mns < 1:
            raise ValueError("need at least one CN and one MN")
        self.params = params or ClioParams.prototype()
        if alloc is not None:
            # Strategy shorthand: a PA-strategy name or a full AllocParams.
            from dataclasses import replace as _replace

            from repro.params import AllocParams
            if isinstance(alloc, str):
                alloc = AllocParams(pa_strategy=alloc)
            self.params = _replace(self.params, alloc=alloc)
        self.partitioned = partitioned
        rack_config = None
        if rack is not None:
            from repro.rack import RackConfig
            rack_config = (RackConfig(boards=rack) if isinstance(rack, int)
                           else rack)
            # The rack config owns the board count: in-service boards
            # plus the pre-cabled spares membership can add later.
            num_mns = rack_config.boards + rack_config.spares
        self.rack_config = rack_config
        if partitioned:
            self.env: Environment = PartitionedEnvironment()
            if rack_config is not None:
                tor_envs = [self.env.partition(f"tor{i}")
                            for i in range(rack_config.tors)]
                spine_env = self.env.partition("spine")
                switch_env = tor_envs[0]
            else:
                switch_env = self.env.partition("switch")
        else:
            self.env = Environment()
            switch_env = self.env
            if rack_config is not None:
                tor_envs = [self.env] * rack_config.tors
                spine_env = self.env
        self.rng = RandomStream(seed, "cluster")
        # One shared metrics namespace for the whole cluster; components
        # register themselves under their own prefixes at construction.
        self.metrics = MetricsRegistry()
        if rack_config is not None:
            from repro.net.rack import RackTopology
            self.topology = RackTopology(
                self.env, self.params.network, tors=rack_config.tors,
                rng=self.rng.fork("net"), registry=self.metrics,
                tor_envs=tor_envs, spine_env=spine_env,
                spine_rate_bps=rack_config.spine_rate_bps,
                spine_forward_ns=rack_config.spine_forward_ns)
        else:
            self.topology = Topology(switch_env, self.params.network,
                                     rng=self.rng.fork("net"),
                                     registry=self.metrics)
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
        if partitioned:
            self._register_partition_metrics()
        # The rack tier (ring + controller + membership) hangs off the
        # boards just built; spares stay out of service until added.
        self.rack = None
        if rack_config is not None:
            from repro.rack import RackTier
            self.rack = RackTier(self, rack_config)
        # Heartbeat health tracking is opt-in: its periodic sweep adds
        # events, so no-fault runs stay bit-identical unless asked for.
        self.health = None
        # Span tracing is likewise opt-in (recording is passive — no
        # events, no RNG — but the record buffer costs memory).
        self.tracer = None
        # Runtime correctness checking is opt-in the same way.
        self.verifier = None
        # Hot-page caching (repro.cache) is opt-in the same way: off, the
        # directory node doesn't exist and no op is intercepted.
        self.cache_dir = None
        # Multi-tenant egress shaping (repro.net.qos) is opt-in the same
        # way: off, the switch consults no shaper and schedules nothing.
        self.qos_shapers: dict[str, object] = {}
        self._switch_env = switch_env

    def _register_partition_metrics(self) -> None:
        """Expose per-partition engine counters as fn-backed metrics."""
        scope = self.metrics.scope("engine")
        scope.counter("drain_runs", fn=lambda: self.env.drain_runs)
        scope.counter("events_dispatched",
                      fn=lambda: self.env.events_dispatched)
        for part in self.env.partitions:
            prefix = f"partition.{part.name}"
            scope.counter(f"{prefix}.events",
                          fn=lambda p=part: p.events_dispatched)
            scope.counter(f"{prefix}.cross_in",
                          fn=lambda p=part: p.cross_events_in)

    def partition_report(self) -> Optional[dict]:
        """Engine-level partition stats, or ``None`` on a flat cluster."""
        if not self.partitioned:
            return None
        return self.env.partition_stats()

    # -- health monitoring ----------------------------------------------------------
    #
    # Every opt-in subsystem follows the same surface: ``enable_*()``
    # returns the subsystem handle (idempotent), ``disable_*()`` detaches
    # it while keeping whatever it recorded.

    def enable_health_monitor(self, interval_ns: int = 100_000,
                              miss_threshold: int = 3):
        """Opt into heartbeat-based board health tracking.

        Returns the :class:`~repro.faults.health.HealthMonitor`; pass it
        to a :class:`~repro.distributed.controller.GlobalController` so
        placement avoids boards believed dead.  Idempotent: a second
        call returns the existing monitor.
        """
        if self.health is None:
            from repro.faults.health import HealthMonitor
            self.health = HealthMonitor(self.env, self.mns,
                                        interval_ns=interval_ns,
                                        miss_threshold=miss_threshold,
                                        registry=self.metrics)
            self.health.tracer = self.tracer
        self.health.start()
        return self.health

    def disable_health_monitor(self) -> None:
        """Stop the heartbeat sweep (beliefs and transitions are kept)."""
        if self.health is not None:
            self.health.stop()

    # -- tracing ------------------------------------------------------------------

    def enable_tracing(self, max_records: int = 1_000_000) -> Tracer:
        """Attach a :class:`~repro.telemetry.spans.Tracer` everywhere.

        Recording never schedules events and never draws RNG, so a traced
        run produces bit-identical simulated timestamps to an untraced
        one (``tests/telemetry/test_zero_cost.py`` proves it).  Idempotent:
        a second call returns the existing tracer.
        """
        if self.tracer is None:
            self._set_tracer(Tracer(self.env, max_records=max_records))
        return self.tracer

    def disable_tracing(self) -> None:
        """Detach the tracer from every component (records are kept)."""
        self._set_tracer(None)

    def _set_tracer(self, tracer) -> None:
        self.tracer = tracer
        for board in self.mns:
            board.set_tracer(tracer)
        for node in self.cns:
            node.transport.tracer = tracer
            if node.cache is not None:
                node.cache.tracer = tracer
        self.topology.set_tracer(tracer)
        if self.health is not None:
            self.health.tracer = tracer
        if self.cache_dir is not None:
            self.cache_dir.tracer = tracer

    # -- verification -------------------------------------------------------------

    def enable_verification(self, quick_checks: bool = True):
        """Attach a :class:`~repro.verify.ClusterVerifier` everywhere.

        Like tracing, checking is passive — hooks record and inspect
        state synchronously inside existing callbacks, scheduling no
        events and drawing no RNG — so a verified run keeps bit-identical
        simulated timestamps (``tests/verify/test_chaos_oracle.py`` pins
        it).  Idempotent: a second call returns the existing verifier.
        """
        if self.verifier is None:
            from repro.verify import ClusterVerifier
            self.verifier = ClusterVerifier(self, quick_checks=quick_checks)
            self.verifier.attach()
        return self.verifier

    def disable_verification(self) -> None:
        """Detach the verifier from every component (records are kept)."""
        if self.verifier is not None:
            self.verifier.detach()
            self.verifier = None

    # -- hot-page caching (repro.cache) -------------------------------------------

    def enable_caching(self, policy: Optional[str] = None,
                       line_bytes: Optional[int] = None,
                       capacity_lines: Optional[int] = None):
        """Opt the cluster into CN-side coherent hot-page caching.

        Builds the cache directory (a ``cachedir`` node on the switch
        tier) and one :class:`~repro.cache.PageCache` per CN, then routes
        every CLib data op through the cache.  Keyword overrides default
        to :class:`~repro.params.CacheParams` in ``self.params``.
        Idempotent: a second call re-enables the existing caches and
        returns the existing directory; overrides that differ from the
        installed configuration raise :class:`ValueError`.
        """
        from dataclasses import replace

        from repro.cache import CacheDirectory, PageCache
        overrides = {name: value for name, value in (
            ("policy", policy), ("line_bytes", line_bytes),
            ("capacity_lines", capacity_lines))
            if value is not None}
        if self.cache_dir is not None:
            installed = self.cns[0].cache.cacheparams
            if replace(installed, **overrides) != installed:
                raise ValueError(
                    f"caching is already enabled with {installed}; "
                    f"cannot reconfigure it with {overrides}")
            for node in self.cns:
                if node.cache is not None:
                    node.cache.enabled = True
            return self.cache_dir
        cacheparams = replace(self.params.cache, **overrides)
        for board in self.mns:
            if board.page_spec.page_size % cacheparams.line_bytes:
                raise ValueError(
                    f"cache line_bytes ({cacheparams.line_bytes}) must "
                    f"divide {board.name}'s page size "
                    f"({board.page_spec.page_size})")
        self.cache_dir = CacheDirectory(self._switch_env, self.topology,
                                        self.params, cacheparams=cacheparams,
                                        registry=self.metrics)
        self.cache_dir.tracer = self.tracer
        for node in self.cns:
            node.cache = PageCache(node, cacheparams, registry=self.metrics)
            node.cache.tracer = self.tracer
        return self.cache_dir

    def disable_caching(self, drain: bool = True) -> list:
        """Turn op interception off on every CN.

        With ``drain=True`` (default) each cache also flushes its dirty
        lines and departs the directory in the background; the returned
        simulation processes complete when that settles (``run`` past
        them before trusting uncached reads under the write-back policy).
        Caches keep answering coherence messages either way.
        """
        processes = []
        for node in self.cns:
            if node.cache is None:
                continue
            node.cache.enabled = False
            if drain:
                processes.append(self.env.process(node.cache.shutdown()))
        return processes

    # -- multi-tenant QoS (repro.net.qos) ------------------------------------------

    def enable_qos(self, qos=None):
        """Opt into per-tenant egress shaping at the switch.

        ``qos`` overrides ``self.params.qos``: pass a
        :class:`~repro.params.QoSParams`, or a tuple of
        :class:`~repro.params.TenantConfig` as shorthand.  Installs one
        :class:`~repro.net.qos.EgressShaper` in front of every shaped
        egress port (by default each MN downlink — the port incast
        congests); packets from nodes in no tenant bypass shaping.
        Returns the ``{node: shaper}`` mapping.  Idempotent: a second
        call reinstalls the existing shapers; a ``qos`` that differs from
        the one they were built from raises :class:`ValueError`.
        """
        from dataclasses import replace as _replace

        from repro.net.qos import EgressShaper
        from repro.params import QoSParams
        if qos is not None:
            if isinstance(qos, tuple):
                qos = QoSParams(tenants=qos)
            if self.qos_shapers and qos != self.params.qos:
                raise ValueError(
                    f"QoS shapers are already built from {self.params.qos}; "
                    f"cannot reconfigure them with {qos}")
            self.params = _replace(self.params, qos=qos)
        switches = self.topology.switches
        if self.qos_shapers:
            for node, shaper in self.qos_shapers.items():
                for switch in switches:
                    if node in switch._downlinks:
                        switch.install_shaper(node, shaper)
            return self.qos_shapers
        config = self.params.qos
        if not config.tenants:
            raise ValueError(
                "enable_qos needs at least one TenantConfig "
                "(ClioParams.qos.tenants or the qos= argument)")
        if config.shape_mn_egress:
            for board in self.mns:
                for switch in switches:
                    downlink = switch._downlinks.get(board.name)
                    if downlink is None:
                        continue
                    shaper = EgressShaper(
                        switch.env, board.name, downlink, config,
                        port_rate_bps=downlink.rate_bps,
                        registry=self.metrics)
                    switch.install_shaper(board.name, shaper)
                    self.qos_shapers[board.name] = shaper
        return self.qos_shapers

    def disable_qos(self) -> None:
        """Stop shaping (stats kept; held packets still drain)."""
        switches = self.topology.switches
        for node in self.qos_shapers:
            for switch in switches:
                switch.remove_shaper(node)

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
        """Cluster-wide health snapshot: per-board and per-CN counters."""
        return {
            "now_ns": self.env.now,
            "boards": {board.name: board.stats() for board in self.mns},
            "cns": {
                node.name: {
                    **node.transport.stats(),
                    "cwnd": {
                        mn: controller.cwnd
                        for mn, controller in
                        node.transport._congestion.items()
                    },
                }
                for node in self.cns
            },
            "health": self.health.stats() if self.health else None,
        }
