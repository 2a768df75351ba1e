"""The rack tier: ring + controller + membership bundled onto a cluster.

``RackTier`` is what ``ClioCluster(rack=...)`` builds: the shard ring,
a ring-driven :class:`~repro.distributed.controller.GlobalController`
over the in-service boards, the membership state machine, and the
``rack.*`` metrics that expose them.  Spare boards are constructed and
cabled to the fabric up front (creating partitions mid-run is not a
thing the engine does) but stay out of the ring and the controller until
membership adds them.
"""

from __future__ import annotations

from repro.distributed.controller import GlobalController
from repro.rack.membership import RackConfig, RackMembership
from repro.rack.shard import ShardRing


class RackTier:
    """Sharded placement + elastic membership over a cluster's boards."""

    def __init__(self, cluster, config: RackConfig):
        self.cluster = cluster
        self.config = config
        self.ring = ShardRing(vnodes=config.vnodes)
        self.controller = GlobalController(
            cluster.env, cluster.mns[:config.boards],
            pressure_threshold=config.pressure_threshold,
            shard=self.ring, qos=cluster.params.qos,
            registry=cluster.metrics)
        self.membership = RackMembership(
            cluster.env, self.controller, self.ring, config)
        self._register_metrics(cluster.metrics)

    def _register_metrics(self, registry) -> None:
        scope = registry.scope("rack")
        scope.gauge("boards_in_service", fn=lambda: len(self.ring))
        scope.gauge("epoch", fn=lambda: self.membership.epoch)
        scope.gauge("overrides", fn=lambda: self.ring.override_count)
        scope.gauge("draining",
                    fn=lambda: len(self.controller.draining))
        scope.counter("migrations", fn=lambda: self.controller.migrations)
        scope.counter("failed_migrations",
                      fn=lambda: self.controller.failed_migrations)
        scope.counter("aborted_migrations",
                      fn=lambda: self.controller.aborted_migrations)
        scope.counter("evictions", fn=lambda: self.membership.evictions)
        scope.counter("drains", fn=lambda: self.membership.drains)
        scope.counter("joins", fn=lambda: self.membership.joins)
        scope.counter("rebalanced", fn=lambda: self.membership.rebalanced)
        scope.counter("ring_membership_changes",
                      fn=lambda: self.ring.membership_changes)

    def start(self) -> None:
        """Start the membership sweep (idempotent).

        The sweep is belief-driven — it evicts boards the cluster's
        health monitor (always present on a rack cluster, and sweeping
        since construction) has believed dead past the lease expiry.
        """
        self.membership.start()

    def stop(self) -> None:
        self.membership.stop()

    # -- conveniences -------------------------------------------------------------

    @property
    def spares(self) -> list:
        """Boards cabled to the fabric but not (yet) in service."""
        names = set(self.controller._boards)
        return [board for board in self.cluster.mns
                if board.name not in names]

    def spare(self, index: int = 0):
        spares = self.spares
        if not spares:
            raise LookupError("no spare boards left")
        return spares[index]
