"""Conformance of the four verbs: one workload, every backend, pinned timing.

Every model answers ``alloc / free / load / store`` itself, so the
conformance workload here is written once against that surface and must
behave identically (same bytes, zero-filled cold ranges, bounds and
use-after-free errors) on all seven backends.  Latencies differ by
design; the pinned fingerprints keep each backend's latency model from
drifting silently.
"""

from dataclasses import replace

import pytest

from repro.baselines.api import BACKEND_NAMES, ClioMemory, create_backend
from repro.cluster import ClioCluster
from repro.params import BackendParams, ClioParams

KB = 1 << 10
MB = 1 << 20


def run(memory, generator):
    return memory.env.run(until=memory.env.process(generator))


def run_conformance(name: str, seed: int = 11):
    """The shared workload; returns (read64_ns, write1k_ns)."""
    memory = create_backend(name, seed=seed)
    out = {}

    def app():
        region = yield from memory.alloc(1 * MB)
        yield from memory.store(region, 0, bytes(range(64)))
        data, read_ns = yield from memory.load(region, 0, 64)
        assert data == bytes(range(64)), f"{name}: readback mismatch"
        out["read64_ns"] = read_ns
        out["write1k_ns"] = (yield from memory.store(
            region, 4096, b"\x5a" * 1024))
        blob, _ = yield from memory.load(region, 4096, 1024)
        assert blob == b"\x5a" * 1024, f"{name}: 1KB readback mismatch"
        # A never-written range reads as zeros on every backend.
        zeros, _ = yield from memory.load(region, 64 * 1024, 256)
        assert zeros == bytes(256), f"{name}: cold range not zero-filled"
        yield from memory.free(region)

    run(memory, app())
    return out["read64_ns"], out["write1k_ns"]


#: Per-backend (64B-read ns, 1KB-write ns) under the conformance
#: workload, seed 11, prototype params.  Pinned 2026-08; move one only
#: with a deliberate re-pin of that backend's latency model.
CONFORMANCE_FINGERPRINTS = {
    "clio": (2519, 3536),
    "cxl": (468, 1138),
    "rdma": (2058, 2601),
    "legoos": (4775, 4939),
    "clover": (2936, 8464),
    "herd": (2535, 3419),
    "herd-bf": (6259, 7835),
}


@pytest.mark.parametrize("name", BACKEND_NAMES)
def test_conformance_semantics_and_fingerprint(name):
    assert run_conformance(name) == CONFORMANCE_FINGERPRINTS[name]


def test_every_backend_name_is_pinned():
    assert set(CONFORMANCE_FINGERPRINTS) == set(BACKEND_NAMES)


def test_cxl_wins_sub_line_reads():
    """The headline trade-off: no RPC framing means a 64B load beats
    every RPC-shaped system on the hot path."""
    cxl_read, _ = CONFORMANCE_FINGERPRINTS["cxl"]
    for name, (read_ns, _) in CONFORMANCE_FINGERPRINTS.items():
        if name != "cxl":
            assert cxl_read < read_ns


def test_create_backend_rejects_unknown_name():
    with pytest.raises(ValueError, match="unknown backend"):
        create_backend("nvme-of")


def test_backends_are_memorybackends():
    for name in BACKEND_NAMES:
        memory = create_backend(name)
        for verb in ("alloc", "free", "load", "store"):
            assert callable(getattr(memory, verb)), (name, verb)
        assert memory.env.now >= 0


@pytest.mark.parametrize("name", BACKEND_NAMES)
def test_out_of_bounds_read_raises(name):
    memory = create_backend(name)

    def app():
        region = yield from memory.alloc(4096)
        with pytest.raises(ValueError, match="outside"):
            yield from memory.load(region, 4000, 200)

    run(memory, app())


@pytest.mark.parametrize("name", BACKEND_NAMES)
def test_access_after_free_raises(name):
    memory = create_backend(name)

    def app():
        region = yield from memory.alloc(4096)
        yield from memory.store(region, 0, b"secret")
        yield from memory.free(region)
        with pytest.raises(ValueError, match="not (allocated|mapped)"):
            yield from memory.load(region, 0, 6)
        with pytest.raises(ValueError, match="not (allocated|mapped)"):
            yield from memory.store(region, 0, b"x")

    run(memory, app())


@pytest.mark.parametrize("name", BACKEND_NAMES)
def test_freed_memory_is_reused(name):
    """Five rounds of alloc(24 MB), a store to its last 64 B and free on
    a 64 MB memory: what was freed is handed out again."""
    params = replace(ClioParams.prototype(),
                     backend=BackendParams(dram_capacity=64 * MB))
    memory = create_backend(name, params)

    def app():
        for _ in range(5):
            region = yield from memory.alloc(24 * MB)
            yield from memory.store(region, 24 * MB - 64, b"\x77" * 64)
            yield from memory.free(region)

    run(memory, app())


@pytest.mark.parametrize("name", BACKEND_NAMES)
def test_reused_memory_reads_zeros_and_spares_live_allocations(name):
    """Three 320 KB allocations on 1 MB, the middle one freed: the next
    allocation reads as zeros, and writing it leaves the others' bytes."""
    params = ClioParams.prototype()
    params = replace(params,
                     cboard=replace(params.cboard, default_page_size=64 * KB),
                     backend=BackendParams(dram_capacity=MB,
                                           capacity_slots=MB // KB))
    memory = create_backend(name, params)

    def app():
        regions = []
        for byte in b"abc":
            regions.append((yield from memory.alloc(320 * KB)))
            yield from memory.store(regions[-1], 0, bytes([byte]) * 64)
        yield from memory.free(regions[1])
        fresh = yield from memory.alloc(320 * KB)
        data, _ = yield from memory.load(fresh, 0, 64)
        assert data == bytes(64)
        yield from memory.store(fresh, 0, b"d" * 64)
        for region, byte in zip((regions[0], regions[2], fresh), b"acd"):
            data, _ = yield from memory.load(region, 0, 64)
            assert data == bytes([byte]) * 64

    run(memory, app())


# -- BackendParams routing ------------------------------------------------------


def test_backend_params_route_capacity():
    params = ClioParams.prototype()
    small = ClioParams(
        **{**params.__dict__, "backend": BackendParams(dram_capacity=64 * MB)})
    assert create_backend("herd", params=small).dram.capacity == 64 * MB


def test_clio_backend_shares_existing_cluster():
    """Clio's verbs run on the caller's thread, on the caller's cluster."""
    cluster = ClioCluster(mn_capacity=64 * MB)
    thread = cluster.cn(0).process("mn0").thread()
    memory = ClioMemory(thread)
    assert memory.thread is thread
    assert memory.env is cluster.env

    def app():
        region = yield from memory.alloc(4096)
        yield from memory.store(region, 8, b"shared")
        return region, (yield from thread.rread(region + 8, 6))

    region, data = run(memory, app())
    assert data == b"shared"
    assert cluster.mn.va_allocator.lookup(thread.process.pid, region)


def test_herd_bf_is_slower_than_herd():
    herd_read, _ = CONFORMANCE_FINGERPRINTS["herd"]
    bf_read, _ = CONFORMANCE_FINGERPRINTS["herd-bf"]
    assert bf_read > herd_read
