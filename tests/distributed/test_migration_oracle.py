"""Data readback across region migration, checked by the shadow oracle.

The oracle follows a region when the global controller moves it between
boards (``on_region_migrated`` → ``region_remapped``): bytes written
before the move must read back identically after it — from the new
board, under the same distributed address — with zero mismatches and
every board invariant intact throughout the copy.
"""

from repro.cluster import ClioCluster
from repro.distributed.controller import GlobalController
from repro.distributed.space import DistributedAddressSpace

MB = 1 << 20


def make_platform(threshold=0.5):
    cluster = ClioCluster(num_cns=1, num_mns=2, mn_capacity=64 * MB,
                          layers=("verification",))
    verifier = cluster.verifier
    controller = GlobalController(cluster.env, cluster.mns,
                                  pressure_threshold=threshold)
    # The controller is built outside the cluster, so it is wired by hand
    # (the cluster only wires the components it owns).
    controller.verifier = verifier
    space = DistributedAddressSpace(cluster.cn(0), controller, pid=777)
    return cluster, controller, space, verifier


def pressure_board(cluster, name, app_steps):
    """Ballast alloc pushing ``name`` over the migration threshold."""
    board = next(b for b in cluster.mns if b.name == name)

    def ballast():
        response = yield from board.slow_path.handle_alloc(pid=1,
                                                           size=24 * MB)
        assert response.ok

    app_steps.append(ballast())


def test_migrated_data_reads_back_clean_under_oracle():
    cluster, controller, space, verifier = make_platform()
    payload = bytes(range(1, 65))
    result = {}

    def app():
        dva = yield from space.alloc(20 * MB)
        source = space.placement()[dva]
        yield from space.write(dva + 5000, payload)
        yield from space.write(dva + 1 * MB, b"second-chunk")
        # Verify the pre-migration readback first.
        pre = yield from space.read(dva + 5000, len(payload))
        assert pre == payload
        # Pressure the source board and force the move.
        board = next(b for b in cluster.mns if b.name == source)
        response = yield from board.slow_path.handle_alloc(pid=1,
                                                           size=24 * MB)
        assert response.ok
        moved = yield from controller.rebalance()
        result["moved"] = moved
        result["source"] = source
        result["target"] = controller.lookup(
            space._mappings[0].region_id).mn
        # Readback after the move goes to the new board.
        result["data"] = yield from space.read(dva + 5000, len(payload))
        result["data2"] = yield from space.read(dva + 1 * MB, 12)
        result["zeros"] = yield from space.read(dva + 2 * MB, 16)

    cluster.run(until=cluster.env.process(app()))

    assert result["moved"] >= 1
    assert result["target"] != result["source"]
    assert result["data"] == payload
    assert result["data2"] == b"second-chunk"
    assert result["zeros"] == b"\x00" * 16

    report = verifier.report()
    assert report["read_mismatches"] == 0, report["mismatch_details"]
    assert report["invariant_violations"] == 0, report["violations"]
    # The oracle really moved the mirror: post-move reads were checked.
    assert report["reads_checked"] >= 4
    assert report["bytes_checked"] > 0


def test_write_after_migration_checked_on_new_board():
    cluster, controller, space, verifier = make_platform()
    result = {}

    def app():
        dva = yield from space.alloc(20 * MB)
        source = space.placement()[dva]
        yield from space.write(dva, b"before-move")
        board = next(b for b in cluster.mns if b.name == source)
        yield from board.slow_path.handle_alloc(pid=1, size=24 * MB)
        yield from controller.rebalance()
        # Overwrite on the new board, read the fresh value back.
        yield from space.write(dva, b"after-move!")
        result["data"] = yield from space.read(dva, 11)

    cluster.run(until=cluster.env.process(app()))
    assert result["data"] == b"after-move!"
    report = verifier.report()
    assert report["read_mismatches"] == 0, report["mismatch_details"]
    assert controller.migrations >= 1


def test_migration_with_detached_verifier_unaffected():
    # Control: the same flow with no verifier exercises the `is None`
    # branches on the controller hook.
    cluster = ClioCluster(num_cns=1, num_mns=2, mn_capacity=64 * MB)
    controller = GlobalController(cluster.env, cluster.mns,
                                  pressure_threshold=0.5)
    space = DistributedAddressSpace(cluster.cn(0), controller, pid=777)
    result = {}

    def app():
        dva = yield from space.alloc(20 * MB)
        source = space.placement()[dva]
        yield from space.write(dva, b"plain")
        board = next(b for b in cluster.mns if b.name == source)
        yield from board.slow_path.handle_alloc(pid=1, size=24 * MB)
        yield from controller.rebalance()
        result["data"] = yield from space.read(dva, 5)

    cluster.run(until=cluster.env.process(app()))
    assert result["data"] == b"plain"
    assert controller.migrations >= 1


def test_controller_free_and_reallocate_clear_the_shadow():
    """Controller allocations and frees run on the board's slow path, so
    no CLib ``alloc_done``/``free_done`` fires for them: the controller
    tells the verifier itself, and a region reallocated at a freed VA
    reads back as zeros without a mismatch."""
    cluster = ClioCluster(num_cns=1, num_mns=2, mn_capacity=64 * MB,
                          layers=("verification",))
    controller = GlobalController(cluster.env, cluster.mns)
    controller.verifier = cluster.verifier
    pid = 4242
    result = {}

    def app():
        first = yield from controller.allocate(pid, 4096)
        thread = cluster.cn(0).process(first.mn, pid=pid).thread()
        yield from thread.rwrite(first.va, b"\xab")
        yield from controller.free(first.region_id)
        again = yield from controller.allocate(pid, 4096)
        result["places"] = (first.mn, first.va, again.mn, again.va)
        result["data"] = yield from thread.rread(again.va, 1)

    cluster.run(until=cluster.env.process(app()))
    assert result["places"] == ("mn0", 0x400000, "mn0", 0x400000)
    assert result["data"] == b"\x00"
    report = cluster.verifier.report()
    assert report["reads_checked"] == 1
    assert report["read_mismatches"] == 0, report["mismatch_details"]
