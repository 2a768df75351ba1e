"""The global controller: coarse-grained placement plus migration.

Placement follows the LegoOS two-level split: the controller only decides
*which MN* backs each coarse region (and moves regions when an MN runs
hot); everything fine-grained — translation, faults, permissions — stays
on the individual CBoards, unchanged.

Placement is one walk over a preference order (:meth:`_pick`): the first
live, non-draining board in the order with room for the region wins.
What differs is only where the order comes from:

* with a shard ring (``shard=`` a :class:`~repro.rack.shard.ShardRing`,
  the rack tier) the region id hashes onto the ring and the order is the
  ring's preference walk — home, then clockwise successors.  A region
  away from its home is a *stray* (:meth:`GlobalController.strays`),
  which the rack tier later moves home;
* without one (a handful of boards) the order is least-utilized first,
  registration order breaking ties.

The leases are the only record of where a region lives: which regions a
board backs and which regions are strays are read off them, not kept
beside them.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Iterable, Optional

from repro.core.cboard import CBoard
from repro.sim import Environment

#: Controller bookkeeping cost per request (it is off the data path).
CONTROLLER_NS = 2_000

#: Settle window after write-fencing a migrating region: writes that had
#: already passed the permission check drain into source DRAM before the
#: copy starts, so every acknowledged byte makes it across.  Bounds the
#: fast path's worst-case residency (ingest + stages + fault + DRAM).
FENCE_SETTLE_NS = 10_000


class PlacementError(Exception):
    """No MN can host the requested region."""


@dataclass
class RegionLease:
    """One coarse-grained region: a VA range on a specific MN."""

    region_id: int
    mn: str                 # board currently backing the region
    va: int                 # VA of the backing allocation on that board
    size: int
    pid: int                # PID used on the backing board
    generation: int = 0     # bumped on every migration


class LeaseLost(Exception):
    """The board backing a lease is (believed) dead.

    The lease itself is not discarded: the backing page table survives a
    crash, so once the board restarts — and the health monitor re-trusts
    it — lookups succeed again with the same VA.
    """

    def __init__(self, region_id: int, mn: str):
        super().__init__(
            f"region {region_id} is on {mn}, which is marked dead")
        self.region_id = region_id
        self.mn = mn


class GlobalController:
    """Places coarse regions on boards; migrates under memory pressure.

    The controller is deliberately *not* on the data path: CNs cache
    leases and talk to boards directly; they come back here only to
    allocate, free, or refresh a lease after a migration.

    With a ``health`` monitor attached, placement and migration skip
    boards believed dead, and :meth:`lookup`/:meth:`free` on a region
    backed by one raise :class:`LeaseLost` — the typed signal a CN uses
    to tell "retry later" apart from "the region never existed".

    With a ``shard`` ring attached, placement follows the ring's
    preference walk (see module docstring).
    """

    def __init__(self, env: Environment, boards: list[CBoard],
                 pressure_threshold: float = 0.85, health=None, shard=None):
        if not boards:
            raise ValueError("need at least one board")
        if not 0.0 < pressure_threshold <= 1.0:
            raise ValueError(
                f"pressure_threshold must be in (0, 1], got {pressure_threshold}")
        self.env = env
        self.pressure_threshold = pressure_threshold
        self.health = health
        self.shard = shard
        # Region ids are per-controller (not process-global): rack
        # fingerprints hash them onto the shard ring, so same-seed runs
        # must draw the same ids no matter what ran earlier in the
        # process.
        self._region_ids = itertools.count(1)
        self._boards: dict[str, CBoard] = {}
        self._leases: dict[int, RegionLease] = {}
        for board in boards:
            self.add_board(board)
        self._migrating: dict[int, Any] = {}   # region_id -> drain event
        self._freeing: set[int] = set()        # frees past their wait loop
        self.draining: set[str] = set()        # boards excluded from placement
        self.migrations = 0
        self.failed_migrations = 0
        self.aborted_migrations = 0            # source died mid-copy
        # Runtime correctness checking (repro.verify); when set, the
        # shadow oracle clears a region on allocation and free (both are
        # board-side, so no CLib hook fires) and follows it across
        # migrations.
        self.verifier = None
        # Cache coherence (repro.cache); when set, migration and free
        # recall every cached copy of the region before touching it.
        self.cache_directory = None

    # -- board registry ----------------------------------------------------------------

    def add_board(self, board: CBoard) -> None:
        """Register a board (construction, or elastic join later).

        With a shard ring attached the board's virtual points go onto the
        ring too, so new allocations can land on it immediately.
        """
        if board.name in self._boards:
            raise ValueError(f"board {board.name!r} already registered")
        self._boards[board.name] = board
        if self.shard is not None and board.name not in self.shard:
            self.shard.add_board(board.name)

    def remove_board(self, name: str) -> None:
        """Deregister an (empty) board — the elastic-drain endpoint."""
        if name not in self._boards:
            raise KeyError(f"unknown board {name!r}")
        regions = self.regions_on(name)
        if regions:
            raise ValueError(
                f"board {name!r} still backs {len(regions)} regions")
        del self._boards[name]
        if self.shard is not None and name in self.shard:
            self.shard.remove_board(name)

    def regions_on(self, name: str) -> list[int]:
        """Region ids currently backed by ``name``, ascending."""
        return sorted(region_id for region_id, lease in self._leases.items()
                      if lease.mn == name)

    def strays(self) -> dict[int, str]:
        """``{region_id: board}`` for every region away from its ring
        home (every region, on an empty ring), in region-id order — the
        work list of the rack tier's rebalance."""
        ring = self.shard
        return {region_id: lease.mn
                for region_id, lease in sorted(self._leases.items())
                if not ring or lease.mn != ring.home(region_id)}

    # -- placement ---------------------------------------------------------------------

    def _alive(self, name: str) -> bool:
        """Is the board usable?  Health-monitor belief when attached
        (detection lag included), the board's true state otherwise."""
        if self.health is not None:
            return self.health.is_alive(name)
        return self._boards[name].alive

    def _utilization(self, name: str) -> float:
        board = self._boards[name]
        return board.page_table.entry_count / board.page_table.physical_pages

    def _fits(self, name: str, size: int) -> bool:
        board = self._boards[name]
        pages_needed = board.page_spec.page_count(size)
        free_slots = (board.page_table.physical_pages
                      - board.page_table.entry_count)
        return pages_needed <= free_slots

    def _order(self, key: int) -> Iterable[str]:
        """Preference order for region ``key``: the ring's walk when
        sharded, else least-utilized first (registration order breaking
        ties).  Read off the page tables at pick time, because boards
        change behind the controller's back (direct slow-path
        allocations, crashes that rebuild page tables)."""
        if self.shard is not None:
            return self.shard.preference(key)
        return sorted(self._boards, key=self._utilization)

    def _pick(self, order: Iterable[str], size: int,
              exclude: Optional[str] = None,
              below_threshold: bool = False) -> Optional[str]:
        """First board in ``order`` that is registered, live, not
        draining, not ``exclude`` and can still host ``size`` bytes —
        and, with ``below_threshold``, is not itself under pressure."""
        for name in order:
            if name == exclude or name not in self._boards:
                continue
            if name in self.draining or not self._alive(name):
                continue
            if (below_threshold
                    and self._utilization(name) >= self.pressure_threshold):
                continue
            if self._fits(name, size):
                return name
        return None

    def allocate(self, pid: int, size: int):
        """Process-generator: place and allocate a region; returns a lease."""
        yield self.env.timeout(CONTROLLER_NS)
        region_id = next(self._region_ids)
        name = self._pick(self._order(region_id), size)
        if name is None:
            raise PlacementError(f"no MN can host {size} bytes")
        response = yield from self._boards[name].slow_path.handle_alloc(
            pid, size)
        if not response.ok:
            raise PlacementError(
                f"{name} rejected a {size}-byte region: {response.error}")
        lease = RegionLease(region_id=region_id, mn=name,
                            va=response.va, size=response.size, pid=pid)
        self._leases[lease.region_id] = lease
        if self.verifier is not None:
            self.verifier.on_region_cleared(lease)
        return lease

    def free(self, region_id: int):
        """Process-generator: release a region on its current board.

        A free that races a migration waits for the move to finish first
        (the lease's board/VA are in flux until then), then *claims* the
        region — ``_freeing`` — before it yields again, so no migration
        can start mid-free and read half-released pages.  A free of a
        region on a dead board raises :class:`LeaseLost` without
        dropping the lease, so it can be retried after the board
        recovers; a free that loses the claim race to another free
        raises ``KeyError`` like any double free.
        """
        yield self.env.timeout(CONTROLLER_NS)
        while region_id in self._migrating:
            yield self._migrating[region_id]
        lease = self._leases.get(region_id)
        if lease is None or region_id in self._freeing:
            raise KeyError(f"unknown region {region_id}")
        if not self._alive(lease.mn):
            raise LeaseLost(region_id, lease.mn)
        # Claim before the first yield below: rebalance/_migrate check the
        # claim, closing the free-starts-then-migration-reads race.
        self._freeing.add(region_id)
        frozen = None
        try:
            if self.cache_directory is not None:
                # Recall (and flush) every cached copy, and hold the region's
                # line locks across the free so no fill resurrects dead lines.
                frozen = yield from self.cache_directory.freeze_region(
                    lease.pid, lease.mn, lease.va, lease.size)
            del self._leases[region_id]
            yield from self._boards[lease.mn].slow_path.handle_free(
                lease.pid, lease.va)
            if self.verifier is not None:
                self.verifier.on_region_cleared(lease)
        finally:
            self._freeing.discard(region_id)
            if frozen is not None:
                self.cache_directory.release_region(frozen)

    def lookup(self, region_id: int) -> RegionLease:
        """Current lease (CNs call this to refresh after a migration).

        Raises :class:`LeaseLost` when the backing board is believed
        dead — the CN should back off and refresh instead of hammering a
        dark port.
        """
        lease = self._leases.get(region_id)
        if lease is None:
            raise KeyError(f"unknown region {region_id}")
        if not self._alive(lease.mn):
            raise LeaseLost(region_id, lease.mn)
        return lease

    # -- migration ------------------------------------------------------------------------

    def pressured_boards(self) -> list[str]:
        return [name for name in self._boards
                if self._utilization(name) > self.pressure_threshold]

    def rebalance(self):
        """Process-generator: migrate regions off boards over threshold.

        Returns the number of regions moved.  Data is copied through the
        controller (read from the old board, written to the new one) and
        the lease generation is bumped so CN caches invalidate.
        """
        moved = 0
        for name in self.pressured_boards():
            if not self._alive(name):
                continue   # can't read data off a dead board
            # Move the largest region first (fastest pressure relief).
            region_ids = sorted(
                (rid for rid in self.regions_on(name)
                 if rid not in self._freeing
                 and rid not in self._migrating),
                key=lambda rid: self._leases[rid].size, reverse=True)
            for region_id in region_ids:
                if self._utilization(name) <= self.pressure_threshold:
                    break
                lease = self._leases.get(region_id)
                if lease is None or region_id in self._freeing:
                    continue   # freed while earlier migrations ran
                target = self._pick_target(exclude=name, size=lease.size,
                                           key=region_id)
                if target is None:
                    break
                ok = yield from self._migrate(lease, target)
                if ok:
                    moved += 1
                # A False return means the target filled between picking
                # it and allocating on it — re-pick for the next region.
        return moved

    def _pick_target(self, exclude: str, size: int,
                     key: int) -> Optional[str]:
        """Where to migrate region ``key`` off ``exclude``.  Ring-less,
        a target must itself be below the pressure threshold (or the
        move just relocates the pressure); on the ring the walk decides
        and any successor with room will do."""
        return self._pick(self._order(key), size, exclude=exclude,
                          below_threshold=self.shard is None)

    def migrate_region(self, region_id: int, target: str):
        """Process-generator: move one region by id; True on success.

        The public entry the membership layer uses for drains and
        rebalances; unlike :meth:`_migrate` it tolerates a region that
        vanished (freed) between scheduling and execution.
        """
        lease = self._leases.get(region_id)
        if lease is None or region_id in self._freeing:
            return False
        if lease.mn == target:
            return True
        result = yield from self._migrate(lease, target)
        return result

    def evict_region(self, region_id: int):
        """Process-generator: re-home a region off a dead board, zero-filled.

        The lease-expiry path: the source board is gone, so unlike
        :meth:`_migrate` nothing is copied — the region restarts empty on
        a live board (ring successor when sharded).  Returns
        ``(old_mn, old_va)`` on success — the caller needs them to drop
        the shadow oracle's stale cells and to reclaim the orphaned
        allocation if the board ever rejoins — or ``None`` when the
        region vanished meanwhile or no live board can take it.
        """
        lease = self._leases.get(region_id)
        if (lease is None or region_id in self._freeing
                or region_id in self._migrating):
            return None
        yield self.env.timeout(CONTROLLER_NS)
        if self._leases.get(region_id) is not lease:
            return None
        target = self._pick(self._order(region_id), lease.size,
                            exclude=lease.mn)
        if target is None:
            return None
        response = yield from self._boards[target].slow_path.handle_alloc(
            lease.pid, lease.size)
        if not response.ok:
            self.failed_migrations += 1
            return None
        old_mn, old_va = lease.mn, lease.va
        lease.mn = target
        lease.va = response.va
        lease.generation += 1
        if self.verifier is not None:
            self.verifier.on_region_evicted(lease, old_mn, old_va)
        return (old_mn, old_va)

    def _migrate(self, lease: RegionLease, target: str):
        """Process-generator: move one region; True on success.

        Returns False — leaving the lease untouched on its source —
        when the target cannot take the allocation after all (it may
        have filled between the capacity check and the alloc), when the
        region is being freed, or when the source board dies mid-copy
        (the half-written target allocation is rolled back).  While the
        copy runs the region is marked in ``_migrating`` so a concurrent
        :meth:`free` waits instead of freeing a VA that is about to
        change.
        """
        region_id = lease.region_id
        if (region_id in self._freeing or region_id in self._migrating
                or self._leases.get(region_id) is not lease):
            return False
        if target not in self._boards:
            raise KeyError(f"unknown board {target!r}")
        drain = self.env.event()
        self._migrating[region_id] = drain
        frozen = None
        fenced: list = []
        completed = False
        try:
            yield self.env.timeout(CONTROLLER_NS)
            source = self._boards[lease.mn]
            target_board = self._boards[target]
            response = yield from target_board.slow_path.handle_alloc(
                lease.pid, lease.size)
            if not response.ok:
                self.failed_migrations += 1
                return False
            if self.cache_directory is not None:
                # Recall every cached copy first: dirty lines flush to the
                # *source* board (the keys still name it), so the copy
                # loop below reads current bytes.  The region's line locks
                # stay held until the lease points at the target, blocking
                # cached traffic for the duration.
                frozen = yield from self.cache_directory.freeze_region(
                    lease.pid, lease.mn, lease.va, lease.size)
            # Write-fence the source: flip the region's PTEs to read-only
            # and shoot down their TLB entries, so writes racing the copy
            # fail typed (clients back off and retry against the new home)
            # instead of landing behind an already-copied chunk and being
            # silently lost.  Reads keep serving throughout.  The settle
            # window lets writes already past the permission check drain
            # into DRAM before the first chunk is read.
            fenced = self._fence_writes(source, lease)
            yield self.env.timeout(FENCE_SETTLE_NS)
            # Copy in page-sized chunks (only pages that were ever touched
            # carry data; untouched pages read as zero on both sides).
            from repro.core.addr import AccessType
            from repro.core.pipeline import Status
            page = source.page_spec.page_size
            offset = 0
            while offset < lease.size:
                if not source.alive:
                    # Source died mid-copy: roll the target back and
                    # leave the lease where it was — the durable page
                    # table serves it again after the restart.
                    yield from target_board.slow_path.handle_free(
                        lease.pid, response.va)
                    self.aborted_migrations += 1
                    return False
                chunk = min(page, lease.size - offset)
                result = yield from source.execute_local(
                    lease.pid, AccessType.READ, lease.va + offset, chunk)
                if result.status is Status.OK and any(result.data):
                    yield from target_board.execute_local(
                        lease.pid, AccessType.WRITE, response.va + offset,
                        chunk, data=result.data)
                offset += chunk
            yield from source.slow_path.handle_free(lease.pid, lease.va)
            old_mn, old_va = lease.mn, lease.va
            lease.mn = target
            lease.va = response.va
            lease.generation += 1
            self.migrations += 1
            if self.verifier is not None:
                self.verifier.on_region_migrated(lease, old_mn, old_va)
            completed = True
            return True
        finally:
            if fenced and not completed:
                # Aborted after fencing: the region stays on its source,
                # so writes must work again (once the board is back).
                self._unfence_writes(source, fenced)
            if frozen is not None:
                self.cache_directory.release_region(frozen)
            del self._migrating[region_id]
            if not drain.triggered:
                drain.succeed()

    def _fence_writes(self, board: CBoard, lease: RegionLease) -> list:
        """Make a region read-only on its board; returns undo state.

        Mutates the PTEs in place and invalidates their TLB entries —
        the MMU-level equivalent of a write-protect shootdown.
        """
        from repro.core.addr import Permission
        fenced = []
        for vpn in board.page_spec.pages_spanned(lease.va, lease.size):
            entry = board.page_table.lookup(lease.pid, vpn)
            if entry is None or Permission.WRITE not in entry.permission:
                continue
            fenced.append((entry, entry.permission))
            entry.permission = Permission.READ
            board.tlb.invalidate(lease.pid, vpn)
        return fenced

    @staticmethod
    def _unfence_writes(board: CBoard, fenced: list) -> None:
        """Undo a write fence: restore permissions AND shoot down the
        TLB again — reads during the fence window re-cached the entries
        with their fenced (read-only) permission."""
        for entry, permission in fenced:
            entry.permission = permission
            board.tlb.invalidate(entry.pid, entry.vpn)
