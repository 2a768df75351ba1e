"""Tests for the LegoOS, Clover, and HERD baseline models."""

import pytest

from repro.baselines.clover import CloverStore
from repro.baselines.herd import HERDServer
from repro.baselines.legoos import LegoOSMemoryNode
from repro.params import BackendParams, ClioParams
from repro.sim import Environment

MB = 1 << 20


def run(env, generator):
    return env.run(until=env.process(generator))


# -- LegoOS ----------------------------------------------------------------------


def params_256mb():
    from dataclasses import replace
    return replace(ClioParams.prototype(),
                   backend=BackendParams(dram_capacity=256 * MB))


def make_legoos():
    env = Environment()
    node = LegoOSMemoryNode(env, params_256mb())
    return env, node


def test_legoos_roundtrip():
    env, node = make_legoos()
    node.map_range(pid=1, va=0, size=MB)
    run(env, node.write(1, 100, b"lego"))
    data, latency = run(env, node.read(1, 100, 4))
    assert data == b"lego"
    assert latency > 0


def test_legoos_unmapped_access_fails():
    env, node = make_legoos()
    with pytest.raises(KeyError):
        run(env, node.read(1, 0, 4))


def test_legoos_software_overhead_dominates_small_requests():
    """Paper: LegoOS latency ~2x Clio at small sizes, from MN software."""
    env, node = make_legoos()
    node.map_range(pid=1, va=0, size=MB)
    _, latency = run(env, node.read(1, 0, 16))
    software = node.params.legoos.software_handling_ns
    assert latency >= software + node.params.rdma.base_read_rtt_ns


def test_legoos_thread_pool_saturates():
    env, node = make_legoos()
    node.map_range(pid=1, va=0, size=MB)
    finish = []

    def client(index):
        yield from node.read(1, index * 64, 16)
        finish.append(env.now)

    procs = [env.process(client(i)) for i in range(32)]
    env.run(until=env.all_of(procs))
    # 32 requests through an 8-thread pool: at least 4 completion waves.
    assert len(set(finish)) >= 4


def test_legoos_tracks_cpu_busy_time():
    env, node = make_legoos()
    node.map_range(pid=1, va=0, size=MB)
    run(env, node.read(1, 0, 16))
    assert node.mn_cpu_busy_ns > 0


# -- Clover ----------------------------------------------------------------------


def make_clover():
    env = Environment()
    store = CloverStore(env, params_256mb())
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


def test_clover_oversized_value_rejected():
    env, store = make_clover()
    with pytest.raises(ValueError):
        run(env, store.put(b"k", b"x" * (CloverStore.VALUE_SLOT + 1)))


# -- HERD ----------------------------------------------------------------------


def make_herd(on_bluefield=False):
    env = Environment()
    server = HERDServer(env, params_256mb(), on_bluefield=on_bluefield)
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
    env_cpu, cpu = make_herd(on_bluefield=False)
    env_bf, bf = make_herd(on_bluefield=True)
    run(env_cpu, cpu.put(b"k", b"v" * 64))
    run(env_bf, bf.put(b"k", b"v" * 64))
    _, cpu_latency = run(env_cpu, cpu.get(b"k"))
    _, bf_latency = run(env_bf, bf.get(b"k"))
    assert bf_latency > cpu_latency + 2 * bf.herd.bluefield_crossing_ns // 2


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
