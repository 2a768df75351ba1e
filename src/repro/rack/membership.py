"""Elastic rack membership: boards join, drain, and get evicted live.

The membership layer is the control loop that keeps the shard ring, the
controller, and reality in agreement while traffic is running:

* :meth:`RackMembership.add_board` brings a (pre-attached spare or
  recovered) board into service — onto the ring, into the controller's
  placement set — and then pulls its fair share of regions over by
  rebalancing override-directory strays toward their new homes;
* :meth:`RackMembership.drain_board` takes a board out gracefully:
  placement stops immediately, its regions migrate off in rate-limited
  batches (bounded concurrent copies, a breather between batches so
  foreground traffic keeps its tail), and only an empty board leaves the
  controller;
* the periodic sweep watches the health monitor's beliefs.  A board dead
  longer than ``lease_expiry_ns`` gets **evicted**: its ring points go
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


@dataclass(frozen=True)
class RackConfig(Bounded):
    """Shape and policy of the rack tier.

    ``boards`` boards start in service; ``spares`` more are built and
    cabled to the fabric but kept out of the ring until a membership
    event adds them.  Migration limits apply to drains and rebalances
    (evictions copy nothing, so they are not rate-limited).
    """

    boards: int = positive(8)
    tors: int = positive(2)
    spares: int = 0
    vnodes: int = 32
    pressure_threshold: float = 0.85
    #: A board dead this long past detection loses its regions.
    lease_expiry_ns: int = 400_000
    #: Live-migration copies in flight at once during a drain/rebalance.
    max_concurrent_migrations: int = positive(2)
    #: Regions per drain batch; between batches the drain pauses.
    migration_batch: int = positive(4)
    #: Breather between drain batches, for foreground tail latency.
    migration_pause_ns: int = 50_000
    #: Membership sweep cadence (health-belief polling).
    sweep_interval_ns: int = 100_000


class DrainError(Exception):
    """A drain could not empty the board (no capacity elsewhere)."""


class RackMembership:
    """Join/drain/evict state machine over a controller and its ring."""

    def __init__(self, env, controller: GlobalController, ring: ShardRing,
                 config: RackConfig, health=None):
        self.env = env
        self.controller = controller
        self.ring = ring
        self.config = config
        self.health = health
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

    # -- joins -------------------------------------------------------------------

    def add_board(self, board, rebalance: bool = True):
        """Process-generator: bring a board into service.

        Handles both a fresh spare (registers with the controller, which
        puts it on the ring) and a recovered evicted board (wipes the
        orphaned allocations its durable page table kept, then re-rings
        it).  With ``rebalance`` (default) the join then pulls strays
        toward their new homes, so the newcomer actually takes load.
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
                self._refresh_directory()
        else:
            self.controller.add_board(board)
        self.controller.draining.discard(name)
        self._draining.discard(name)
        self.joins += 1
        self.epoch += 1
        moved = 0
        if rebalance:
            moved = yield from self.rebalance_to_home()
        return moved

    def rebalance_to_home(self):
        """Process-generator: migrate override-directory strays home.

        Walks a snapshot of the ring's override directory and moves each
        region whose home is live and has room, rate-limited exactly like
        a drain.  Returns the number of regions moved.
        """
        strays = []
        for region_id, actual in sorted(self.ring.overrides().items()):
            home = self.ring.home(region_id)
            if home == actual or home not in self.controller._boards:
                continue
            if home in self.controller.draining:
                continue
            if not self.controller._alive(home):
                continue
            strays.append((region_id, home))
        moved = yield from self._run_batched(strays)
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
        if name not in self.controller._boards:
            raise KeyError(f"unknown board {name!r}")
        if name in self._draining:
            raise ValueError(f"board {name!r} is already draining")
        self._draining.add(name)
        self.controller.draining.add(name)
        if name in self.ring:
            self.ring.remove_board(name)
            self._refresh_directory()
        self.epoch += 1
        jobs = []
        for region_id in self.controller.regions_on(name):
            lease = self.controller._leases.get(region_id)
            if lease is None:
                continue
            target = self.controller._pick_target(
                exclude=name, size=lease.size, key=region_id)
            if target is None:
                self._draining.discard(name)
                raise DrainError(
                    f"no board can take region {region_id} off {name!r}")
            jobs.append((region_id, target))
        yield from self._run_batched(jobs)
        left = self.controller.regions_on(name)
        if left:
            self._draining.discard(name)
            raise DrainError(
                f"{len(left)} regions still on {name!r} after the drain")
        self.controller.remove_board(name)
        self._draining.discard(name)
        self.controller.draining.discard(name)
        self.drains += 1
        self.epoch += 1

    def _refresh_directory(self) -> None:
        """Keep the ring's override directory truthful after arc moves."""
        self.ring.refresh_overrides(
            {region_id: lease.mn
             for region_id, lease in self.controller._leases.items()})

    def _run_batched(self, jobs):
        """Process-generator: run (region, target) migrations rate-limited.

        ``migration_batch`` regions per batch, at most
        ``max_concurrent_migrations`` copies in flight within a batch,
        and a ``migration_pause_ns`` breather between batches.  Returns
        the count of successful moves.
        """
        config = self.config
        moved = 0
        for start in range(0, len(jobs), config.migration_batch):
            batch = jobs[start:start + config.migration_batch]
            for offset in range(0, len(batch),
                                config.max_concurrent_migrations):
                window = batch[offset:offset
                               + config.max_concurrent_migrations]
                procs = [self.env.process(
                    self.controller.migrate_region(region_id, target))
                    for region_id, target in window]
                yield self.env.all_of(procs)
                moved += sum(1 for proc in procs if proc.value)
            if start + config.migration_batch < len(jobs):
                yield self.env.timeout(config.migration_pause_ns)
        return moved

    # -- the health sweep ----------------------------------------------------------

    def start(self) -> None:
        """Begin the periodic eviction/rejoin sweep (needs ``health``)."""
        if self.health is None:
            raise ValueError("membership sweep needs a health monitor")
        if not self._sweeping:
            self._sweeping = True
            self.env.process(self._sweep())

    def stop(self) -> None:
        self._sweeping = False

    def _sweep(self):
        while self._sweeping:
            yield self.env.timeout(self.config.sweep_interval_ns)
            if not self._sweeping:
                return
            yield from self._sweep_once()

    def _sweep_once(self):
        """Process-generator: one pass of belief-driven repair."""
        now = self.env.now
        for name in list(self.controller._boards):
            if name in self._draining:
                continue
            alive = self.health.is_alive(name)
            if alive:
                if name in self._orphans:
                    # An evicted board came back: wipe and rejoin it.
                    board = self.controller._boards[name].board
                    yield from self.add_board(board)
                else:
                    self._dead_since.pop(name, None)
                continue
            if name in self._orphans:
                continue      # already evicted, still dark
            since = self._dead_since.setdefault(name, now)
            if now - since < self.config.lease_expiry_ns:
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
            self._refresh_directory()
        orphans = self._orphans.setdefault(name, [])
        for region_id in self.controller.regions_on(name):
            lease = self.controller._leases.get(region_id)
            if lease is None:
                continue
            pid = lease.pid
            old = yield from self.controller.evict_region(region_id)
            if old is not None:
                orphans.append((pid, old[1]))
                self.evictions += 1
        self.epoch += 1
