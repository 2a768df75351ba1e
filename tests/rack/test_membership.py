"""Tests for elastic rack membership: joins, drains, evictions, rejoins."""

import pytest

from repro.cluster import ClioCluster
from repro.params import MB, MS, US
from repro.rack import DrainError, RackConfig

PID = 4242
PAGE = 4 * MB


def make_rack(boards=4, spares=0, mn_capacity=64 * MB, partitioned=False):
    config = RackConfig(boards=boards, tors=2, spares=spares)
    cluster = ClioCluster(num_cns=1, mn_capacity=mn_capacity, rack=config,
                          partitioned=partitioned)
    return cluster, cluster.rack


def threads_for(cluster):
    return {board.name: cluster.cn(0).process(board.name, pid=PID).thread()
            for board in cluster.mns}


def test_tier_places_regions_by_ring_and_validates_config():
    cluster, tier = make_rack(boards=4)
    result = {}

    def app():
        leases = []
        for _ in range(16):
            leases.append((yield from tier.controller.allocate(PID, PAGE)))
        result["leases"] = leases

    cluster.run(until=cluster.env.process(app()))
    ring = tier.ring
    # An unconstrained allocation lands on the key's ring home.
    homes = sum(1 for lease in result["leases"]
                if ring.home(lease.region_id) == lease.mn)
    assert homes == len(result["leases"])
    assert tier.controller.strays() == {}
    with pytest.raises(ValueError):
        RackConfig(boards=0)
    with pytest.raises(ValueError):
        RackConfig(boards=4, tors=0)


def test_strays_are_the_leases_off_their_ring_home():
    """The leases are the one placement record: after every membership
    step, ``strays()`` is exactly the leases whose board is not their
    ring home, in region-id order, and the ``rack.overrides`` gauge
    counts them."""
    cluster, tier = make_rack(boards=4, spares=1)
    tier.start()
    controller, ring, env = tier.controller, tier.ring, cluster.env
    counts = {}

    def check(step):
        expected = {rid: lease.mn for rid, lease in controller._leases.items()
                    if lease.mn != ring.home(rid)}
        strays = controller.strays()
        assert strays == expected, step
        assert list(strays) == sorted(expected), step
        assert cluster.metrics.snapshot()["rack.overrides"] == len(strays)
        counts[step] = len(strays)

    def app():
        for _ in range(16):
            yield from controller.allocate(PID, PAGE)
        check("allocate")
        # A join moves arcs under regions that stay put: they are strays
        # until its rebalance has copied them to the newcomer.
        join = env.process(tier.add_board(tier.spare(0)))
        yield env.timeout(1_000)
        check("joining")
        yield join
        check("joined")
        # A drain takes the board off the ring first: its regions are
        # strays until their copies land.
        drain = env.process(tier.drain_board("mn1"))
        yield env.timeout(1_000)
        check("draining")
        yield drain
        check("drained")
        # Regions placed while mn2 is believed dead spill past it...
        cluster.board("mn2").crash()
        while cluster.health.is_alive("mn2"):
            yield env.timeout(50 * US)
        for _ in range(8):
            yield from controller.allocate(PID, PAGE)
        check("allocate past a dead board")
        # ...until its eviction takes its arcs away: then they are home.
        while "mn2" in ring or controller.regions_on("mn2"):
            yield env.timeout(50 * US)
        check("evict")

    cluster.run(until=env.process(app()))
    assert counts["joining"] == tier.rebalanced > 0
    assert counts["draining"] > 0
    assert counts["allocate past a dead board"] > 0
    assert counts["allocate"] == counts["joined"] == 0
    assert counts["drained"] == counts["evict"] == 0


def test_drain_migrates_data_and_deregisters_board():
    cluster, tier = make_rack(boards=4)
    controller = tier.controller
    threads = threads_for(cluster)
    result = {}

    def app():
        leases = []
        for _ in range(16):
            leases.append((yield from controller.allocate(PID, PAGE)))
        victim = next(b for b in ("mn1", "mn2", "mn3")
                      if controller.regions_on(b))
        marked = next(l for l in leases if l.mn == victim)
        yield from threads[victim].rwrite(marked.va + 64, b"sticky")
        moved_off = len(controller.regions_on(victim))
        yield from tier.drain_board(victim)
        after = controller.lookup(marked.region_id)
        assert after.mn != victim
        data = yield from threads[after.mn].rread(after.va + 64, 6)
        result.update(victim=victim, moved_off=moved_off, data=data)

    cluster.run(until=cluster.env.process(app()))
    assert result["data"] == b"sticky"
    assert result["victim"] not in tier.controller._boards
    assert result["victim"] not in tier.ring
    assert tier.controller.migrations >= result["moved_off"]
    assert tier.drains == 1
    assert tier.epoch >= 2
    # Every surviving lease points at a live, registered board.
    for region_id in list(tier.controller._leases):
        assert tier.controller.lookup(region_id).mn != result["victim"]


def test_drain_without_capacity_raises_and_keeps_board():
    cluster, tier = make_rack(boards=2, mn_capacity=16 * MB)
    controller = tier.controller
    result = {}

    def app():
        # Fill the rack solid (4 pages per board at 16MB): the preference
        # walk packs every page, leaving a drain nowhere to go.
        for _ in range(4):
            yield from controller.allocate(PID, 2 * PAGE)
        victim = next(b for b in ("mn0", "mn1")
                      if controller.regions_on(b))
        with pytest.raises(DrainError):
            yield from tier.drain_board(victim)
        result["victim"] = victim

    cluster.run(until=cluster.env.process(app()))
    assert result["victim"] in tier.controller._boards
    assert tier.drains == 0


def test_added_spare_takes_load_via_rebalance():
    cluster, tier = make_rack(boards=4, spares=1)
    controller = tier.controller
    result = {}

    def app():
        for _ in range(24):
            yield from controller.allocate(PID, PAGE)
        spare = tier.spare(0)
        assert spare.name not in controller._boards
        moved = yield from tier.add_board(spare)
        result["moved"] = moved
        result["spare"] = spare.name

    cluster.run(until=cluster.env.process(app()))
    spare = result["spare"]
    assert spare in tier.controller._boards
    assert spare in tier.ring
    assert tier.joins == 1
    # The newcomer owns arcs, so rebalancing moved its regions home.
    assert result["moved"] >= 1
    assert result["moved"] == len(tier.controller.regions_on(spare))
    for region_id in tier.controller.regions_on(spare):
        assert tier.ring.home(region_id) == spare


def test_eviction_after_lease_expiry_then_rejoin_wipes_orphans():
    cluster, tier = make_rack(boards=4)
    tier.start()
    controller = tier.controller
    threads = threads_for(cluster)
    env = cluster.env
    result = {}

    def app():
        leases = []
        for _ in range(12):
            leases.append((yield from controller.allocate(PID, PAGE)))
        victim = next(b for b in ("mn1", "mn2", "mn3")
                      if controller.regions_on(b))
        board = cluster.board(victim)
        marked = next(l for l in leases if l.mn == victim)
        yield from threads[victim].rwrite(marked.va + 64, b"doomed")
        lost = len(controller.regions_on(victim))
        gen_before = marked.generation
        entries_before_crash = board.page_table.entry_count
        board.crash()
        while tier.evictions < lost:
            yield env.timeout(50 * US)
        after = controller.lookup(marked.region_id)
        assert after.mn != victim
        assert after.generation > gen_before
        # Eviction is re-sharding, not migration: data restarts zeroed.
        data = yield from threads[after.mn].rread(after.va + 64, 6)
        assert data == b"\x00" * 6
        # The dead board's durable page table still holds the orphans.
        assert board.page_table.entry_count == entries_before_crash
        board.restart()
        while victim not in tier.ring:
            yield env.timeout(50 * US)
        result.update(victim=victim, lost=lost,
                      entries_after=board.page_table.entry_count,
                      entries_before=entries_before_crash)

    cluster.run(until=env.process(app()))
    assert tier.evictions == result["lost"]
    # The rejoin wiped every orphaned allocation before re-ringing.
    assert result["entries_after"] < result["entries_before"]
    assert result["victim"] not in tier._orphans
    assert tier.joins == 1


def test_draining_board_is_not_a_placement_target():
    cluster, tier = make_rack(boards=3)
    controller = tier.controller
    env = cluster.env
    result = {}

    def app():
        for _ in range(6):
            yield from controller.allocate(PID, PAGE)
        victim = "mn1"
        drain = env.process(tier.drain_board(victim))
        yield env.timeout(1_000)   # drain underway, board still known
        fresh = yield from controller.allocate(PID, PAGE)
        result["fresh_mn"] = fresh.mn
        yield drain

    cluster.run(until=env.process(app()))
    assert result["fresh_mn"] != "mn1"


def test_same_seed_rack_membership_identical_flat_vs_partitioned():
    placements = []
    for partitioned in (False, True):
        cluster, tier = make_rack(boards=4, spares=1,
                                  partitioned=partitioned)
        controller = tier.controller

        def app():
            for _ in range(12):
                yield from controller.allocate(PID, PAGE)
            yield from tier.drain_board("mn2")
            yield from tier.add_board(tier.spare(0))

        cluster.run(until=cluster.env.process(app()))
        placements.append((
            cluster.env.now,
            tuple(sorted((rid, lease.mn)
                         for rid, lease in controller._leases.items())),
            tier.epoch, controller.migrations,
        ))
    assert placements[0] == placements[1]
