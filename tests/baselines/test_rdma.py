"""Tests for the RDMA baseline model."""

import pytest

from dataclasses import replace

from repro.baselines.rdma import (
    MRRegistrationError,
    RDMAMemoryNode,
    RemoteAccessError,
)
from repro.params import BackendParams, ClioParams, MS, US
from repro.sim import Environment

MB = 1 << 20


def make_node(**overrides):
    env = Environment()
    params = ClioParams.prototype()
    if overrides:
        params = replace(params, rdma=replace(params.rdma, **overrides))
    params = replace(params, backend=BackendParams(dram_capacity=256 * MB))
    node = RDMAMemoryNode(env, params)
    return env, node


def run(env, generator):
    return env.run(until=env.process(generator))


def register(env, node, size=MB, pinned=True):
    return run(env, node.register_mr(size, pinned=pinned))


def test_read_write_roundtrip():
    env, node = make_node()
    region = register(env, node)
    qp = node.create_qp()
    run(env, node.write(qp, region, 100, b"rdma-data"))
    data, latency = run(env, node.read(qp, region, 100, 9))
    assert data == b"rdma-data"
    assert latency > 0


def test_access_outside_mr_rejected():
    env, node = make_node()
    region = register(env, node, size=4096)
    qp = node.create_qp()
    with pytest.raises(ValueError):
        run(env, node.read(qp, region, 4090, 16))


def test_deregistered_mr_rejects_one_sided_verbs():
    """A real RNIC answers a verb on a deregistered MR with a remote
    access error; it must not serve the stale bytes."""
    env, node = make_node()
    region = register(env, node, size=4096)
    qp = node.create_qp()
    run(env, node.write(qp, region, 0, b"secret"))
    run(env, node.deregister_mr(region))
    with pytest.raises(RemoteAccessError, match="not allocated"):
        run(env, node.read(qp, region, 0, 6))
    with pytest.raises(RemoteAccessError, match="not allocated"):
        run(env, node.write(qp, region, 0, b"x"))
    assert node.ops == 1


def test_pinned_access_never_faults():
    env, node = make_node()
    region = register(env, node)
    qp = node.create_qp()
    run(env, node.write(qp, region, 0, b"x" * 64))
    assert node.page_faults == 0


def test_odp_first_touch_faults_16_8_ms():
    env, node = make_node()
    region = register(env, node, pinned=False)
    qp = node.create_qp()
    start = env.now
    run(env, node.write(qp, region, 0, b"x" * 64))
    first_touch = env.now - start
    start = env.now
    run(env, node.write(qp, region, 0, b"y" * 64))
    warm = env.now - start
    assert node.page_faults == 1
    assert first_touch >= 16_800 * US
    # Paper: a faulting access is ~14100x slower than a no-fault access.
    assert first_touch / warm > 1000


def test_mr_registration_cost_scales_with_pages():
    env, node = make_node()
    t0 = env.now
    register(env, node, size=4096)
    small = env.now - t0
    t0 = env.now
    register(env, node, size=64 * MB)
    big = env.now - t0
    assert big > small * 100


def test_odp_registration_skips_pinning_cost():
    env, node = make_node()
    t0 = env.now
    register(env, node, size=64 * MB, pinned=True)
    pinned_cost = env.now - t0
    t0 = env.now
    register(env, node, size=64 * MB, pinned=False)
    odp_cost = env.now - t0
    assert odp_cost < pinned_cost


def test_mr_limit_enforced():
    env, node = make_node(max_mrs=4)
    for _ in range(4):
        register(env, node, size=4096)
    with pytest.raises(MRRegistrationError):
        register(env, node, size=4096)


def test_qp_cache_thrash_degrades_latency():
    """Figure 4's mechanism: more active QPs than cache -> PCIe fetches."""
    env, node = make_node(qp_cache_entries=8)
    region = register(env, node)
    few_qps = [node.create_qp() for _ in range(4)]
    many_qps = [node.create_qp() for _ in range(64)]

    def average_latency(qps, rounds=6):
        total = 0
        count = 0
        for _ in range(rounds):
            for qp in qps:
                _, latency = run(env, node.read(qp, region, 0, 16))
                total += latency
                count += 1
        return total / count

    fast = average_latency(few_qps)
    slow = average_latency(many_qps)
    assert slow > fast * 1.2


def test_pte_cache_thrash_degrades_latency():
    """Figure 5's mechanism: working set beyond the MTT cache."""
    env, node = make_node(pte_cache_entries=32)
    region = register(env, node, size=64 * MB)
    qp = node.create_qp()
    page = 4096

    def average_latency(pages, rounds=4):
        total = 0
        count = 0
        for _ in range(rounds):
            for index in range(pages):
                _, latency = run(env, node.read(qp, region, index * page, 16))
                total += latency
                count += 1
        return total / count

    small_set = average_latency(8)
    large_set = average_latency(512)
    assert large_set > small_set * 1.2


def test_latency_has_heavy_tail():
    env, node = make_node()
    region = register(env, node)
    qp = node.create_qp()
    latencies = []
    for _ in range(4000):
        _, latency = run(env, node.read(qp, region, 0, 16))
        latencies.append(latency)
    latencies.sort()
    median = latencies[len(latencies) // 2]
    p999 = latencies[int(len(latencies) * 0.999)]
    assert p999 > median * 5   # long tail, unlike Clio


def test_atomic_cas():
    env, node = make_node()
    region = register(env, node)
    qp = node.create_qp()
    old, ok, _ = run(env, node.atomic_cas(qp, region, 0, 0, 42))
    assert ok and old == 0
    old, ok, _ = run(env, node.atomic_cas(qp, region, 0, 0, 43))
    assert not ok and old == 42
