"""MemoryBackend conformance: one workload, every backend, pinned timing.

The protocol's whole point is that nothing outside a backend class needs
to know its native API — so the conformance workload here is written
once against :class:`repro.baselines.api.MemoryBackend` and must behave
identically (same bytes, zero-filled cold ranges, bounds errors) on all
seven backends.  Latencies differ by design; the pinned fingerprints
keep each backend's latency model from drifting silently.
"""

import warnings

import pytest

from repro.baselines.api import (
    BACKEND_NAMES,
    ClioBackend,
    HERDBackend,
    MemoryBackend,
    create_backend,
)
from repro.params import BackendParams, ClioParams

MB = 1 << 20


def run_conformance(name: str, seed: int = 11):
    """The shared workload; returns (read64_ns, write1k_ns)."""
    backend = create_backend(name, seed=seed)
    out = {}

    def app():
        yield from backend.setup()
        handle = yield from backend.alloc(1 * MB)
        yield from backend.write(handle, 0, bytes(range(64)))
        data, read_ns = yield from backend.read(handle, 0, 64)
        assert data == bytes(range(64)), f"{name}: readback mismatch"
        out["read64_ns"] = read_ns
        out["write1k_ns"] = (yield from backend.write(
            handle, 4096, b"\x5a" * 1024))
        blob, _ = yield from backend.read(handle, 4096, 1024)
        assert blob == b"\x5a" * 1024, f"{name}: 1KB readback mismatch"
        # A never-written range reads as zeros on every backend.
        zeros, _ = yield from backend.read(handle, 64 * 1024, 256)
        assert zeros == bytes(256), f"{name}: cold range not zero-filled"
        yield from backend.free(handle)

    backend.run_process(app())
    return out["read64_ns"], out["write1k_ns"]


#: Per-backend (64B-read ns, 1KB-write ns) under the conformance
#: workload, seed 11, prototype params.  Pinned 2026-08 with the
#: MemoryBackend protocol; move one only with a deliberate re-pin of
#: that backend's latency model.
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
        backend = create_backend(name)
        assert isinstance(backend, MemoryBackend)
        assert backend.name == name


def test_ops_before_setup_raise():
    backend = create_backend("herd")
    with pytest.raises(RuntimeError, match="setup"):
        backend.run_process(backend.alloc(4096))


def test_out_of_bounds_read_raises():
    backend = create_backend("rdma")

    def app():
        yield from backend.setup()
        handle = yield from backend.alloc(4096)
        with pytest.raises(ValueError, match="out of bounds|outside"):
            yield from backend.read(handle, 4000, 200)

    backend.run_process(app())


# -- BackendParams routing ------------------------------------------------------


def test_backend_params_route_capacity():
    params = ClioParams.prototype()
    small = ClioParams(
        **{**params.__dict__, "backend": BackendParams(dram_capacity=64 * MB)})
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        backend = create_backend("herd", params=small)
    assert backend.server.dram.capacity == 64 * MB


def test_legacy_classes_importable_from_package():
    from repro.baselines import (  # noqa: F401
        CloverStore,
        HERDServer,
        LegoOSMemoryNode,
        RDMAMemoryNode,
    )


def test_clio_backend_shares_existing_cluster():
    from repro.cluster import ClioCluster

    cluster = ClioCluster(params=ClioParams.prototype(), seed=3,
                          mn_capacity=256 * MB)
    backend = ClioBackend(seed=3, cluster=cluster)
    assert backend.cluster is cluster


def test_herd_bf_is_slower_than_herd():
    herd_read, _ = CONFORMANCE_FINGERPRINTS["herd"]
    bf_read, _ = CONFORMANCE_FINGERPRINTS["herd-bf"]
    assert bf_read > herd_read
