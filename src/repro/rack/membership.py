"""The rack tier: a shard ring, a ring-driven controller, and elastic
membership — boards join, drain, and get evicted live.

``RackTier`` is what ``ClioCluster(rack=...)`` builds: the shard ring, a
:class:`~repro.distributed.controller.GlobalController` over the
in-service boards, the ``rack.*`` metrics, and the control loop that
keeps ring, controller and reality in agreement while traffic runs.  The
controller's leases are the one placement record; which regions a board
backs and which are strays are derived from them.  Spare boards are
constructed and cabled to the fabric up front (creating partitions
mid-run is not a thing the engine does) but stay out of the ring and the
controller until membership adds them.

* :meth:`RackTier.add_board` brings a (pre-attached spare or recovered)
  board into service — onto the ring, into the controller's placement
  set — and then pulls its fair share of regions over by moving strays
  toward their new homes;
* :meth:`RackTier.drain_board` takes a board out gracefully: placement
  stops immediately, its regions migrate off in rate-limited batches
  (bounded concurrent copies, a breather between batches so foreground
  traffic keeps its tail), and only an empty board leaves the
  controller;
* the periodic sweep watches the health monitor's beliefs.  A board dead
  longer than ``LEASE_EXPIRY_NS`` gets **evicted**: its ring points go
  away and every region it backed is re-allocated zero-filled on a live
  ring successor (the data died with the board — this is re-sharding,
  not migration).  If the board later comes back, the sweep wipes the
  orphaned allocations its durable page table still holds and rejoins it
  as a fresh member.

Every join, drain, and eviction bumps the **epoch** — the cheap
generation number tests and metrics use to observe membership churn.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.distributed.controller import GlobalController
from repro.params import Bounded, positive
from repro.rack.shard import ShardRing

#: A board dead this long past detection loses its regions.
LEASE_EXPIRY_NS = 400_000
#: Live-migration copies in flight at once during a drain/rebalance.
MAX_CONCURRENT_MIGRATIONS = 2
#: Regions per drain batch; between batches the drain pauses.
MIGRATION_BATCH = 4
#: Breather between drain batches, for foreground tail latency.
MIGRATION_PAUSE_NS = 50_000
#: Membership sweep cadence (health-belief polling).
SWEEP_INTERVAL_NS = 100_000


@dataclass(frozen=True)
class RackConfig(Bounded):
    """Shape of the rack tier.

    ``boards`` boards start in service under ``tors`` ToRs; ``spares``
    more are built and cabled to the fabric but kept out of the ring
    until a membership event adds them.
    """

    boards: int = positive(8)
    tors: int = positive(2)
    spares: int = 0


class DrainError(Exception):
    """A drain could not empty the board (no capacity elsewhere)."""


class RackTier:
    """Sharded placement + elastic membership over a cluster's boards."""

    def __init__(self, cluster, config: RackConfig):
        self.cluster = cluster
        self.env = cluster.env
        self.ring = ShardRing()
        # Its ``health`` is the cluster's monitor, handed over when the
        # cluster wires its layers; the sweep reads beliefs through it.
        self.controller = GlobalController(
            cluster.env, cluster.mns[:config.boards], shard=self.ring)
        self.epoch = 0
        self.evictions = 0            # regions re-homed off dead boards
        self.drains = 0               # boards drained out
        self.joins = 0                # boards brought into service
        self.rebalanced = 0           # strays moved home after a join
        #: board -> sim-time its health belief first went dead.
        self._dead_since: dict[str, int] = {}
        #: evicted board -> [(pid, va)] orphaned allocations to wipe on rejoin.
        self._orphans: dict[str, list[tuple[int, int]]] = {}
        self._draining: set[str] = set()
        self._sweeping = False
        self._register_metrics(cluster.metrics)

    def _register_metrics(self, registry) -> None:
        scope = registry.scope("rack")
        scope.gauge("boards_in_service", fn=lambda: len(self.ring))
        scope.gauge("epoch", fn=lambda: self.epoch)
        scope.gauge("overrides", fn=lambda: len(self.controller.strays()))
        scope.gauge("draining",
                    fn=lambda: len(self.controller.draining))
        scope.counter("migrations", fn=lambda: self.controller.migrations)
        scope.counter("failed_migrations",
                      fn=lambda: self.controller.failed_migrations)
        scope.counter("aborted_migrations",
                      fn=lambda: self.controller.aborted_migrations)
        scope.counter("evictions", fn=lambda: self.evictions)
        scope.counter("drains", fn=lambda: self.drains)
        scope.counter("joins", fn=lambda: self.joins)
        scope.counter("rebalanced", fn=lambda: self.rebalanced)
        scope.counter("ring_membership_changes",
                      fn=lambda: self.ring.membership_changes)

    def spare(self, index: int = 0):
        """The ``index``-th board cabled to the fabric but not in service."""
        spares = [board for board in self.cluster.mns
                  if board.name not in self.controller._boards]
        if not spares:
            raise LookupError("no spare boards left")
        return spares[index]

    # -- joins -------------------------------------------------------------------

    def add_board(self, board):
        """Process-generator: bring a board into service; returns the
        number of regions the join's rebalance moved.

        Handles both a fresh spare (registers with the controller, which
        puts it on the ring) and a recovered evicted board (wipes the
        orphaned allocations its durable page table kept, then re-rings
        it).  The join then pulls strays toward their new homes, so the
        newcomer actually takes load.
        """
        name = board.name
        if name in self.controller._boards:
            # Rejoin after eviction: reclaim the orphaned allocations
            # first so the board comes back with its real free capacity.
            for pid, va in self._orphans.pop(name, []):
                yield from board.slow_path.handle_free(pid, va)
            self._dead_since.pop(name, None)
            if name not in self.ring:
                self.ring.add_board(name)
        else:
            self.controller.add_board(board)
        self.controller.draining.discard(name)
        self._draining.discard(name)
        self.joins += 1
        self.epoch += 1
        moved = yield from self.rebalance_to_home()
        return moved

    def rebalance_to_home(self):
        """Process-generator: migrate strays home.

        Takes a snapshot of the controller's strays and moves each region
        whose home is believed alive, rate-limited exactly like a drain.
        (A ring home is always a registered, non-draining board: drains
        take a board off the ring first.)  Returns the number of regions
        moved.
        """
        controller = self.controller
        jobs = []
        for region_id in controller.strays():
            home = self.ring.home(region_id)
            if controller._alive(home):
                jobs.append((region_id, home))
        moved = yield from self._run_batched(jobs)
        self.rebalanced += moved
        return moved

    # -- drains ------------------------------------------------------------------

    def drain_board(self, name: str):
        """Process-generator: migrate everything off ``name``, then
        deregister it.

        Placement stops the moment the drain starts (the board leaves
        the ring and joins the controller's ``draining`` set), so the
        region population only shrinks while batches run.  Raises
        :class:`DrainError` — leaving the board draining but in place —
        if some regions cannot move because nowhere has capacity.
        """
        controller = self.controller
        if name not in controller._boards:
            raise KeyError(f"unknown board {name!r}")
        if name in self._draining:
            raise ValueError(f"board {name!r} is already draining")
        self._draining.add(name)
        controller.draining.add(name)
        if name in self.ring:
            self.ring.remove_board(name)
        self.epoch += 1
        jobs = []
        for region_id in controller.regions_on(name):
            target = controller._pick_target(
                exclude=name, size=controller._leases[region_id].size,
                key=region_id)
            if target is None:
                self._draining.discard(name)
                raise DrainError(
                    f"no board can take region {region_id} off {name!r}")
            jobs.append((region_id, target))
        yield from self._run_batched(jobs)
        left = controller.regions_on(name)
        if left:
            self._draining.discard(name)
            raise DrainError(
                f"{len(left)} regions still on {name!r} after the drain")
        controller.remove_board(name)
        self._draining.discard(name)
        controller.draining.discard(name)
        self.drains += 1
        self.epoch += 1

    def _run_batched(self, jobs):
        """Process-generator: run (region, target) migrations rate-limited.

        ``MIGRATION_BATCH`` regions per batch, at most
        ``MAX_CONCURRENT_MIGRATIONS`` copies in flight within a batch,
        and a ``MIGRATION_PAUSE_NS`` breather between batches.  Returns
        the count of successful moves.
        """
        moved = 0
        for start in range(0, len(jobs), MIGRATION_BATCH):
            batch = jobs[start:start + MIGRATION_BATCH]
            for offset in range(0, len(batch), MAX_CONCURRENT_MIGRATIONS):
                window = batch[offset:offset + MAX_CONCURRENT_MIGRATIONS]
                procs = [self.env.process(
                    self.controller.migrate_region(region_id, target))
                    for region_id, target in window]
                yield self.env.all_of(procs)
                moved += sum(1 for proc in procs if proc.value)
            if start + MIGRATION_BATCH < len(jobs):
                yield self.env.timeout(MIGRATION_PAUSE_NS)
        return moved

    # -- the health sweep ----------------------------------------------------------

    def start(self) -> None:
        """Begin the periodic eviction/rejoin sweep (idempotent).

        The sweep is belief-driven — it evicts boards the cluster's
        health monitor (always present on a rack cluster, and sweeping
        since construction) has believed dead past the lease expiry.
        """
        if not self._sweeping:
            self._sweeping = True
            self.env.process(self._sweep())

    def _sweep(self):
        while True:
            yield self.env.timeout(SWEEP_INTERVAL_NS)
            yield from self._sweep_once()

    def _sweep_once(self):
        """Process-generator: one pass of belief-driven repair."""
        now = self.env.now
        boards = self.controller._boards
        for name in list(boards):
            if name in self._draining:
                continue
            if self.controller.health.is_alive(name):
                if name in self._orphans:
                    # An evicted board came back: wipe and rejoin it.
                    yield from self.add_board(boards[name])
                else:
                    self._dead_since.pop(name, None)
                continue
            if name in self._orphans:
                continue      # already evicted, still dark
            since = self._dead_since.setdefault(name, now)
            if now - since < LEASE_EXPIRY_NS:
                continue
            yield from self._evict_board(name)

    def _evict_board(self, name: str):
        """Process-generator: re-shard a dead board's regions.

        The board stays registered with the controller (it may come
        back) but leaves the ring, and every region it backed restarts
        zero-filled on a live successor.  The orphaned allocations its
        durable page table still holds are recorded for the rejoin wipe.
        """
        if name in self.ring:
            self.ring.remove_board(name)
        orphans = self._orphans.setdefault(name, [])
        for region_id in self.controller.regions_on(name):
            lease = self.controller._leases.get(region_id)
            if lease is None:
                continue      # freed while earlier evictions ran
            pid = lease.pid
            old = yield from self.controller.evict_region(region_id)
            if old is not None:
                orphans.append((pid, old[1]))
                self.evictions += 1
        self.epoch += 1
