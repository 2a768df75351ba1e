"""Tests for the global controller and distributed address space."""

import pytest

from repro.cluster import ClioCluster
from repro.distributed.controller import (
    GlobalController,
    LeaseLost,
    PlacementError,
)
from repro.distributed.space import DistributedAddressSpace

MB = 1 << 20
PAGE = 4 * MB


def make_platform(num_mns=2, mn_capacity=64 * MB, threshold=0.85):
    cluster = ClioCluster(num_cns=1, num_mns=num_mns,
                          mn_capacity=mn_capacity)
    controller = GlobalController(cluster.env, cluster.mns,
                                  pressure_threshold=threshold)
    space = DistributedAddressSpace(cluster.cn(0), controller, pid=777)
    return cluster, controller, space


def run_app(cluster, generator):
    return cluster.run(until=cluster.env.process(generator))


def test_allocate_places_on_least_utilized_board():
    cluster, controller, space = make_platform()

    def app():
        a = yield from space.alloc(8 * MB)
        b = yield from space.alloc(8 * MB)
        return a, b

    run_app(cluster, app())
    boards = set(space.placement().values())
    # Load balancing spreads the two regions across the two boards.
    assert boards == {"mn0", "mn1"}


def test_read_write_through_distributed_space():
    cluster, controller, space = make_platform()
    result = {}

    def app():
        dva = yield from space.alloc(8 * MB)
        yield from space.write(dva + 123, b"federated")
        result["data"] = yield from space.read(dva + 123, 9)

    run_app(cluster, app())
    assert result["data"] == b"federated"


def test_cross_region_access_rejected():
    cluster, controller, space = make_platform()

    def app():
        dva = yield from space.alloc(PAGE)
        with pytest.raises(ValueError):
            yield from space.read(dva + PAGE - 4, 8)
        with pytest.raises(ValueError):
            yield from space.read(dva - 100, 8)

    run_app(cluster, app())


def test_free_releases_board_memory():
    cluster, controller, space = make_platform()

    def app():
        dva = yield from space.alloc(8 * MB)
        mn = space.placement()[dva]
        board = next(b for b in cluster.mns if b.name == mn)
        before = board.page_table.entry_count
        yield from space.free(dva)
        assert board.page_table.entry_count < before
        with pytest.raises(KeyError):
            yield from space.free(dva)

    run_app(cluster, app())


def test_placement_error_when_all_boards_full():
    cluster, controller, space = make_platform(mn_capacity=16 * MB)

    def app():
        with pytest.raises(PlacementError):
            for _ in range(32):
                yield from space.alloc(8 * MB)

    run_app(cluster, app())


def test_rebalance_migrates_off_pressured_board():
    cluster, controller, space = make_platform(num_mns=2,
                                               mn_capacity=64 * MB,
                                               threshold=0.5)
    result = {}

    def app():
        # Force everything onto mn0 by allocating before mn1 is better:
        # fill mn0 beyond threshold with two regions.
        dva1 = yield from space.alloc(20 * MB)
        mn_first = space.placement()[dva1]
        # Write data we expect to survive migration.
        yield from space.write(dva1 + 5000, b"survives-migration")
        # Pressure the first board directly with extra ballast.
        board = next(b for b in cluster.mns if b.name == mn_first)
        response = yield from board.slow_path.handle_alloc(pid=1,
                                                           size=24 * MB)
        assert response.ok
        assert controller.pressured_boards() == [mn_first]

        moved = yield from controller.rebalance()
        result["moved"] = moved
        result["old_board"] = mn_first
        # The lease now points elsewhere; the CN's next access refreshes.
        result["data"] = yield from space.read(dva1 + 5000, 18)
        result["new_board"] = controller.lookup(
            space._mappings[0].region_id).mn

    run_app(cluster, app())
    assert result["moved"] >= 1
    assert result["data"] == b"survives-migration"
    assert result["new_board"] != result["old_board"]
    assert controller.migrations >= 1
    assert space.lease_refreshes >= 1


def test_lookup_unknown_region_rejected():
    cluster, controller, space = make_platform()
    with pytest.raises(KeyError):
        controller.lookup(999)


def test_invalid_construction():
    cluster = ClioCluster(num_mns=1, mn_capacity=64 * MB)
    with pytest.raises(ValueError):
        GlobalController(cluster.env, [])
    with pytest.raises(ValueError):
        GlobalController(cluster.env, cluster.mns, pressure_threshold=0.0)


# -- migration edge cases ----------------------------------------------------------


def test_migration_target_fills_midway_returns_gracefully():
    """If the target board fills between the capacity check and the
    alloc, the migration must fail soft: lease untouched on its source,
    no exception, failure counted."""
    cluster, controller, space = make_platform(num_mns=2,
                                               mn_capacity=64 * MB,
                                               threshold=0.5)
    result = {}

    def app():
        dva = yield from space.alloc(20 * MB)
        source = space.placement()[dva]
        source_board = next(b for b in cluster.mns if b.name == source)
        target_board = next(b for b in cluster.mns if b.name != source)
        ballast = yield from source_board.slow_path.handle_alloc(
            pid=1, size=24 * MB)
        assert ballast.ok
        lease = controller.lookup(space._mappings[0].region_id)
        # Sabotage: fill the target's page table (2x overprovisioned, so
        # 32 slots on a 16-page board) after _pick_target would approve
        # it, leaving fewer slots than the 5-page migration needs.
        for pid in (2, 3):
            filler = yield from target_board.slow_path.handle_alloc(
                pid=pid, size=56 * MB)
            assert filler.ok
        ok = yield from controller._migrate(lease, target_board.name)
        result["ok"] = ok
        result["lease_mn"] = lease.mn
        result["source"] = source

    run_app(cluster, app())
    assert result["ok"] is False
    assert result["lease_mn"] == result["source"]   # stayed put
    assert controller.failed_migrations == 1
    assert controller.migrations == 0


def test_rebalance_with_no_eligible_target_moves_nothing():
    cluster, controller, space = make_platform(num_mns=1,
                                               mn_capacity=64 * MB,
                                               threshold=0.5)
    result = {}

    def app():
        yield from space.alloc(40 * MB)   # over threshold, nowhere to go
        assert controller.pressured_boards()
        moved = yield from controller.rebalance()
        result["moved"] = moved

    run_app(cluster, app())
    assert result["moved"] == 0
    assert controller.migrations == 0


def test_free_of_migrating_region_waits_for_move():
    """A free racing a migration must wait for the move to finish, then
    free the region on its *new* board — not the stale source VA."""
    cluster, controller, space = make_platform(num_mns=2,
                                               mn_capacity=64 * MB,
                                               threshold=0.5)
    env = cluster.env
    result = {}

    def app():
        dva = yield from space.alloc(20 * MB)
        source = space.placement()[dva]
        source_board = next(b for b in cluster.mns if b.name == source)
        target = next(b.name for b in cluster.mns if b.name != source)
        yield from source_board.slow_path.handle_alloc(pid=1, size=24 * MB)
        lease = controller.lookup(space._mappings[0].region_id)
        region_id = lease.region_id

        migration = env.process(controller._migrate(lease, target))
        # Let the migration start (past its CONTROLLER_NS think time).
        yield env.timeout(3_000)
        assert region_id in controller._migrating
        free = env.process(controller.free(region_id))
        yield migration
        yield free
        result["final_mn"] = lease.mn
        result["target"] = target
        result["region_id"] = region_id

    run_app(cluster, app())
    assert controller.migrations == 1
    assert result["final_mn"] == result["target"]
    with pytest.raises(KeyError):
        controller.lookup(result["region_id"])   # freed after the move


# -- health-aware placement --------------------------------------------------------


class _StaticHealth:
    """Health-monitor stand-in with a fixed belief set."""

    def __init__(self, dead=()):
        self.dead = set(dead)

    def is_alive(self, name):
        return name not in self.dead


def test_dead_board_excluded_from_placement():
    cluster = ClioCluster(num_cns=1, num_mns=2, mn_capacity=64 * MB)
    health = _StaticHealth(dead={"mn0"})
    controller = GlobalController(cluster.env, cluster.mns, health=health)
    space = DistributedAddressSpace(cluster.cn(0), controller, pid=777)
    result = {}

    def app():
        a = yield from space.alloc(8 * MB)
        b = yield from space.alloc(8 * MB)
        result["boards"] = set(space.placement().values())

    run_app(cluster, app())
    assert result["boards"] == {"mn1"}   # mn0 never picked


def test_lookup_and_free_on_dead_board_raise_lease_lost():
    cluster = ClioCluster(num_cns=1, num_mns=2, mn_capacity=64 * MB)
    health = _StaticHealth()
    controller = GlobalController(cluster.env, cluster.mns, health=health)
    space = DistributedAddressSpace(cluster.cn(0), controller, pid=777)
    result = {}

    def app():
        yield from space.alloc(8 * MB)
        lease = controller.lookup(space._mappings[0].region_id)
        health.dead.add(lease.mn)
        with pytest.raises(LeaseLost) as excinfo:
            controller.lookup(lease.region_id)
        result["exc"] = excinfo.value
        with pytest.raises(LeaseLost):
            yield from controller.free(lease.region_id)
        # The lease survives the outage: board recovers, lookup works.
        health.dead.clear()
        result["recovered"] = controller.lookup(lease.region_id)

    run_app(cluster, app())
    assert result["exc"].region_id == result["recovered"].region_id
    assert result["exc"].mn == result["recovered"].mn


def test_controller_without_health_uses_true_board_state():
    cluster = ClioCluster(num_cns=1, num_mns=2, mn_capacity=64 * MB)
    controller = GlobalController(cluster.env, cluster.mns)
    space = DistributedAddressSpace(cluster.cn(0), controller, pid=777)
    result = {}

    def app():
        yield from space.alloc(8 * MB)
        region_id = space._mappings[0].region_id
        lease = controller.lookup(region_id)
        board = next(b for b in cluster.mns if b.name == lease.mn)
        board.crash()
        with pytest.raises(LeaseLost):
            controller.lookup(region_id)
        board.restart()
        result["lease"] = controller.lookup(region_id)
        result["region_id"] = region_id

    run_app(cluster, app())
    assert result["lease"].region_id == result["region_id"]


# -- free/migration/drain interleavings ---------------------------------------------


def test_double_free_racing_first_free_raises_key_error():
    """Two frees of the same region, the second issued while the first
    is still in its think time: the first claims the region, the second
    must fail typed with KeyError — not free twice, not hang."""
    cluster, controller, space = make_platform()
    env = cluster.env
    result = {}

    def app():
        yield from space.alloc(8 * MB)
        region_id = space._mappings[0].region_id

        def racer():
            try:
                yield from controller.free(region_id)
                return "freed"
            except KeyError:
                return "key_error"

        first = env.process(racer())
        second = env.process(racer())
        yield env.all_of([first, second])
        result["outcomes"] = sorted([first.value, second.value])

    run_app(cluster, app())
    assert result["outcomes"] == ["freed", "key_error"]


def test_free_waits_out_drain_migration_and_lands_on_new_board():
    """free() issued mid-drain: the region is in flight to another
    board; the free must wait for the copy and release the *new* home
    (the drain then completes with nothing left to move)."""
    from repro.cluster import ClioCluster
    from repro.rack import RackConfig

    config = RackConfig(boards=3, tors=2)
    cluster = ClioCluster(num_cns=1, mn_capacity=64 * MB, rack=config)
    tier = cluster.rack
    controller = tier.controller
    env = cluster.env
    result = {}

    def app():
        leases = []
        for _ in range(6):
            leases.append((yield from controller.allocate(777, PAGE)))
        victim = next(b for b in ("mn0", "mn1", "mn2")
                      if controller.regions_on(b))
        doomed = next(l for l in leases if l.mn == victim)
        drain = env.process(tier.drain_board(victim))
        while doomed.region_id not in controller._migrating:
            yield env.timeout(500)
        free = env.process(controller.free(doomed.region_id))
        yield drain
        yield free
        result["victim"] = victim
        result["region_id"] = doomed.region_id

    cluster.run(until=env.process(app()))
    assert result["victim"] not in controller._boards
    with pytest.raises(KeyError):
        controller.lookup(result["region_id"])


# -- the migration write fence -------------------------------------------------------


def test_write_fence_blocks_writes_allows_reads_until_unfenced():
    from repro.clib.client import RemoteAccessError

    cluster, controller, space = make_platform()
    result = {}

    def app():
        dva = yield from space.alloc(8 * MB)
        yield from space.write(dva + 10, b"pre-fence")
        lease = controller.lookup(space._mappings[0].region_id)
        board = cluster.board(lease.mn)
        fenced = controller._fence_writes(board, lease)
        assert fenced   # at least one writable PTE got flipped
        with pytest.raises(RemoteAccessError):
            yield from space.write(dva + 10, b"blocked")
        # Reads pass through the fence.
        result["read"] = yield from space.read(dva + 10, 9)
        controller._unfence_writes(board, fenced)
        yield from space.write(dva + 10, b"post-slot")
        result["after"] = yield from space.read(dva + 10, 9)

    run_app(cluster, app())
    assert result["read"] == b"pre-fence"
    assert result["after"] == b"post-slot"


def test_migration_fences_concurrent_writes_and_loses_no_data():
    """A writer hammering a region during its live migration: every
    write either lands (pre-fence, and is copied) or fails typed
    (fenced); the post-migration state equals the last acked write."""
    from repro.clib.client import RemoteAccessError

    cluster, controller, space = make_platform(num_mns=2,
                                               mn_capacity=64 * MB,
                                               threshold=0.5)
    env = cluster.env
    result = {"acked": 0, "fenced": 0}

    def app():
        dva = yield from space.alloc(20 * MB)
        source = space.placement()[dva]
        target = next(b.name for b in cluster.mns if b.name != source)
        lease = controller.lookup(space._mappings[0].region_id)
        migration = env.process(controller._migrate(lease, target))
        last_acked = None
        serial = 0
        while migration.is_alive:
            payload = serial.to_bytes(8, "little")
            try:
                yield from space.write(dva + 100, payload)
                result["acked"] += 1
                last_acked = payload
            except RemoteAccessError:
                result["fenced"] += 1
            serial += 1
            yield env.timeout(1_000)
        yield migration
        assert migration.value is True
        result["final"] = yield from space.read(dva + 100, 8)
        result["expected"] = last_acked
        result["new_mn"] = controller.lookup(lease.region_id).mn
        result["target"] = target

    run_app(cluster, app())
    assert result["new_mn"] == result["target"]
    assert result["acked"] > 0
    assert result["fenced"] > 0          # the fence window really closed
    assert result["final"] == result["expected"]


# -- pick ordering ---------------------------------------------------------------


def test_pick_under_churn_matches_recorded_placements():
    """The ring-less order — least-utilized first, registration order
    breaking ties, read off the page tables at pick time — through
    allocations, frees, external (behind-the-back) allocations, draining
    marks and board churn.  The board names were recorded from the lazy
    heap this walk replaced: placements must not move."""
    cluster = ClioCluster(num_cns=1, num_mns=4, mn_capacity=64 * MB)
    controller = GlobalController(cluster.env, cluster.mns)
    placed = []

    def app():
        regions = []
        for step in range(14):
            size = (4 + (step % 3) * 8) * MB
            lease = yield from controller.allocate(777, size)
            placed.append(lease.mn)
            regions.append(lease.region_id)
            if step == 5:
                # External ballast the controller never saw happen.
                yield from cluster.board("mn2").slow_path.handle_alloc(
                    pid=55, size=16 * MB)
            if step == 9:
                controller.draining.add("mn0")
            if step == 11:
                controller.draining.discard("mn0")
                yield from controller.free(regions.pop(0))
            if step == 12:
                yield from controller.free(regions.pop(0))

    cluster.run(until=cluster.env.process(app()))
    assert placed == ["mn0", "mn1", "mn2", "mn3", "mn0", "mn3", "mn1",
                      "mn0", "mn1", "mn3", "mn3", "mn1", "mn0", "mn0"]
    # End state: mn2 at 9/16 pages, mn0 and mn3 tied at 10/16, mn1 at 11/16.
    order = controller._order(0)
    assert order == ["mn2", "mn0", "mn3", "mn1"]

    def pick(size, **kwargs):
        return controller._pick(order, size, **kwargs)

    assert pick(4 * MB) == pick(4 * MB, exclude="mn1") == "mn2"
    assert pick(4 * MB, exclude="mn2") == "mn0"      # the tie: registration
    assert pick(24 * MB, exclude="mn2") == "mn0"
    assert pick(40 * MB) is None                     # fits nowhere
    assert pick(4 * MB, below_threshold=True) == "mn2"
    controller.pressure_threshold = 0.6              # only mn2 is below
    assert pick(4 * MB, exclude="mn2", below_threshold=True) is None
    controller.pressure_threshold = 0.5
    assert pick(4 * MB, below_threshold=True) is None
