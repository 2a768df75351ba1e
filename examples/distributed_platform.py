#!/usr/bin/env python3
"""A distributed memory platform: global controller, migration, and a
transparent cache — the paper's section 3.3 extensions.

Three CBoards behind one ToR.  A global controller places coarse regions
on the least-utilized board and migrates them away when a board crosses
its memory-pressure threshold (LegoOS-style two-level management).  Then,
on a second cluster built with the caching layer, a CN-side write-back
cache serves a scan's plain rread/rwrite calls from local memory and
fills only its misses from the board.

Run:  python examples/distributed_platform.py
"""

from dataclasses import replace

from repro import ClioCluster, ClioParams
from repro.distributed import DistributedAddressSpace, GlobalController
from repro.params import CacheParams

KB = 1 << 10
MB = 1 << 20


def main() -> None:
    cluster = ClioCluster(num_cns=1, num_mns=3, mn_capacity=64 * MB)
    controller = GlobalController(cluster.env, cluster.mns,
                                  pressure_threshold=0.6)
    space = DistributedAddressSpace(cluster.cn(0), controller, pid=4242)
    state = {}

    def app():
        print("== Distributed platform: 3 CBoards, one address space ==")
        regions = []
        for index in range(4):
            dva = yield from space.alloc(12 * MB)
            yield from space.write(dva, b"region-%d" % index)
            regions.append(dva)
        print("placement after 4 x 12MB allocations:")
        for dva, mn in space.placement().items():
            print(f"  dva {dva:#x} -> {mn}")

        # Pressure mn0 with ballast, then let the controller rebalance.
        ballast = yield from cluster.mns[0].slow_path.handle_alloc(
            pid=1, size=28 * MB)
        assert ballast.ok
        pressured = controller.pressured_boards()
        print(f"pressured boards: {pressured}")
        moved = yield from controller.rebalance()
        print(f"controller migrated {moved} region(s); "
              f"total migrations={controller.migrations}")

        # Data survives migration; the CN refreshes its lease on demand.
        for index, dva in enumerate(regions):
            data = yield from space.read(dva, 8)
            assert data == b"region-%d" % index
        print(f"all regions verified after migration "
              f"(lease refreshes: {space.lease_refreshes})")
        state["platform_ok"] = True

    cluster.run(until=cluster.env.process(app()))
    assert state.get("platform_ok")

    # --- transparent interface: the caching layer on one board ------------
    params = replace(ClioParams.prototype(), cache=CacheParams(
        policy="back", line_bytes=64 * KB, capacity_lines=16))
    cached = ClioCluster(params=params, num_cns=1, num_mns=1,
                         mn_capacity=64 * MB, layers=("caching",))
    thread = cached.cn(0).process("mn0").thread()
    cache = cached.cn(0).cache

    def scan_app():
        base = yield from thread.ralloc(8 * MB)
        # Sequential scan, three passes: first pass misses, rest hit.
        for _ in range(3):
            for offset in range(0, 1 * MB, 64 * KB):
                yield from thread.rwrite(base + offset, b"%08d" % offset)
                yield from thread.rread(base + offset, 8)
        yield from cache.shutdown()

    cached.run(until=cached.env.process(scan_app()))
    counts = cached.metrics.snapshot("cache.cn0")
    hits = counts["cache.cn0.hits"] + counts["cache.cn0.write_hits"]
    misses = counts["cache.cn0.misses"] + counts["cache.cn0.write_fills"]
    print("\n== Transparent cache over mn0 ==")
    print(f"hits={hits} misses={misses} "
          f"hit rate={hits / (hits + misses):.0%}, "
          f"writebacks={counts['cache.cn0.writebacks']}")
    print("\nUnmodified CBoards support explicit, transparent, and")
    print("federated usage — the CN side decides (paper §3.3).")


if __name__ == "__main__":
    main()
