"""Tests for the served (LegoOS, HERD, HERD-BF) and Clover models."""

import pytest

from repro.baselines.clover import CloverStore
from repro.baselines.rdma import Extents
from repro.baselines.served import ServedMemoryNode
from repro.params import BackendParams, ClioParams
from repro.sim import Environment

MB = 1 << 20


def run(env, generator):
    return env.run(until=env.process(generator))


# -- LegoOS ----------------------------------------------------------------------


def params_256mb(**backend):
    from dataclasses import replace
    return replace(ClioParams.prototype(),
                   backend=BackendParams(dram_capacity=256 * MB, **backend))


def make_legoos():
    env = Environment()
    node = ServedMemoryNode(env, params_256mb(), "legoos")
    return env, node, run(env, node.alloc(MB))


def test_legoos_roundtrip():
    env, node, extent = make_legoos()
    run(env, node.store(extent, 100, b"lego"))
    data, latency = run(env, node.load(extent, 100, 4))
    assert data == b"lego"
    assert latency > 0


def test_legoos_unmapped_access_fails():
    env, node, extent = make_legoos()
    run(env, node.free(extent))
    with pytest.raises(ValueError, match="not allocated"):
        run(env, node.load(extent, 0, 4))


def test_legoos_software_overhead_dominates_small_requests():
    """Paper: LegoOS latency ~2x Clio at small sizes, from MN software."""
    env, node, extent = make_legoos()
    _, latency = run(env, node.load(extent, 0, 16))
    software = node.params.legoos.software_handling_ns
    assert latency >= software + node.params.rdma.base_read_rtt_ns


def test_legoos_thread_pool_saturates():
    env, node, extent = make_legoos()
    finish = []

    def client(index):
        yield from node.load(extent, index * 64, 16)
        finish.append(env.now)

    procs = [env.process(client(i)) for i in range(32)]
    env.run(until=env.all_of(procs))
    # 32 requests through an 8-thread pool: at least 4 completion waves.
    assert len(set(finish)) >= 4


def test_legoos_tracks_cpu_busy_time():
    env, node, extent = make_legoos()
    run(env, node.load(extent, 0, 16))
    assert node.mn_cpu_busy_ns > 0


# -- Clover ----------------------------------------------------------------------


def make_clover(**backend):
    env = Environment()
    store = CloverStore(env, params_256mb(**backend))
    run(env, store.setup())
    return env, store


def test_clover_put_get_roundtrip():
    env, store = make_clover()
    run(env, store.put(b"key1", b"value-1"))
    value, _ = run(env, store.get(b"key1"))
    assert value[:7] == b"value-1"


def test_clover_missing_key():
    env, store = make_clover()
    value, _ = run(env, store.get(b"ghost"))
    assert value is None


def test_clover_write_needs_at_least_two_rtts():
    env, store = make_clover()
    write_latency = run(env, store.put(b"k", b"v" * 64))
    _, read_latency = run(env, store.get(b"k"))
    # Writes pay >= 2 RTTs vs reads' 1 RTT (plus occasional chases).
    assert write_latency > read_latency * 1.4


def test_clover_cn_side_management_accounted():
    env, store = make_clover()
    run(env, store.put(b"k", b"v"))
    run(env, store.get(b"k"))
    assert store.cn_mgmt_busy_ns >= 2 * store.clover.metadata_lookup_ns


def test_clover_value_over_one_slot_round_trips():
    """A 4 KB value takes four contiguous slots, so ``store`` takes what
    every other backend takes."""
    env, store = make_clover()
    extent = run(env, store.alloc(8192))
    value = bytes(range(256)) * 16
    run(env, store.store(extent, 0, value))
    data, _ = run(env, store.load(extent, 0, len(value)))
    assert data == value


def test_clover_replaced_versions_free_their_slots():
    """A version that has been replaced gives its slot back; a live one
    keeps it, and a store with no slot free raises ``MemoryError``."""
    env, store = make_clover(capacity_slots=4)
    extent = run(env, store.alloc(256))
    for index, byte in enumerate(b"ABC"):
        run(env, store.store(extent, 16 * index, bytes([byte]) * 16))
    for byte in b"abcde":               # each overwrite frees a slot
        run(env, store.store(extent, 0, bytes([byte]) * 16))
    run(env, store.store(extent, 48, b"D" * 16))
    with pytest.raises(MemoryError):
        run(env, store.store(extent, 64, b"E" * 16))
    for index, byte in enumerate(b"eBCD"):
        data, _ = run(env, store.load(extent, 16 * index, 16))
        assert data == bytes([byte]) * 16
    run(env, store.free(extent))        # free gives back all four
    extent = run(env, store.alloc(256))
    for index in range(4):
        run(env, store.store(extent, 16 * index, b"F" * 16))


# -- HERD ----------------------------------------------------------------------


def make_herd(system="herd"):
    env = Environment()
    server = ServedMemoryNode(env, params_256mb(), system)
    return env, server


def test_herd_put_get_roundtrip():
    env, server = make_herd()
    run(env, server.put(b"key", b"herd-value"))
    value, _ = run(env, server.get(b"key"))
    assert value[:10] == b"herd-value"


def test_herd_update_overwrites():
    env, server = make_herd()
    run(env, server.put(b"key", b"v1"))
    run(env, server.put(b"key", b"v2"))
    value, _ = run(env, server.get(b"key"))
    assert value[:2] == b"v2"


def test_herd_bluefield_slower_than_cpu():
    """Paper: HERD-BF latency much higher due to chip-to-chip crossing."""
    env_cpu, cpu = make_herd("herd")
    env_bf, bf = make_herd("herd-bf")
    run(env_cpu, cpu.put(b"k", b"v" * 64))
    run(env_bf, bf.put(b"k", b"v" * 64))
    _, cpu_latency = run(env_cpu, cpu.get(b"k"))
    _, bf_latency = run(env_bf, bf.get(b"k"))
    assert bf_latency > cpu_latency + bf.params.herd.bluefield_crossing_ns


def test_herd_missing_key():
    env, server = make_herd()
    value, _ = run(env, server.get(b"nope"))
    assert value is None


def test_herd_tracks_cpu_busy_time():
    env, server = make_herd()
    run(env, server.put(b"k", b"v"))
    assert server.mn_cpu_busy_ns > 0


def test_herd_raw_read_write():
    env, server = make_herd()
    extent = run(env, server.alloc(8192))
    run(env, server.store(extent, 4096, b"raw-bytes"))
    data, latency = run(env, server.load(extent, 4096, 9))
    assert data == b"raw-bytes"
    assert latency > 0


# -- the served node and its extent records ------------------------------------------


@pytest.mark.parametrize("system", ["herd", "herd-bf", "legoos"])
def test_served_node_raises_memory_error_when_nothing_fits(system):
    env = Environment()
    node = ServedMemoryNode(env, params_256mb(), system)
    run(env, node.alloc(200 * MB))
    with pytest.raises(MemoryError):
        run(env, node.alloc(100 * MB))


def test_served_node_names_one_of_its_rows():
    with pytest.raises(ValueError, match="unknown served system"):
        ServedMemoryNode(Environment(), params_256mb(), "clover")


def test_extents_take_fresh_space_first_then_merged_holes():
    extents = Extents(100)
    a, b, c = (extents.take(30) for _ in range(3))
    assert (a, b, c) == ((0, 30), (30, 30), (60, 30))
    extents.release(a)
    assert extents.take(10) == (90, 10)        # fresh space first
    extents.release(b)                         # merges with a's hole
    assert extents.take(60) == (0, 60)
    with pytest.raises(MemoryError):
        extents.take(1)
    extents.release((0, 60))
    extents.release(c)
    extents.release((90, 10))
    assert extents.take(100) == (0, 100)       # all of it merged back
