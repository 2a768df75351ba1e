"""Tests for the on-chip state accounting model."""

from repro.core.state_accounting import (
    CONNECTION_FIXED_BYTES,
    clio_onchip_state,
    connection_state_bytes,
    gbn_onchip_state,
    rdma_onchip_state,
)
from repro.params import MB, CBoardParams


def test_clio_state_independent_of_scale():
    small = clio_onchip_state(clients=1, hosted_bytes=1 << 30)
    huge = clio_onchip_state(clients=10_000, hosted_bytes=4 << 40)
    assert small.total_bytes == huge.total_bytes


def test_clio_state_fits_paper_budget():
    """Section 1: TBs + thousands of processes in ~1.5 MB on-chip."""
    state = clio_onchip_state(clients=1000, hosted_bytes=1 << 40)
    assert state.total_bytes < int(1.5 * MB)


def test_clio_breakdown_components():
    state = clio_onchip_state()
    for key in ("tlb", "async_buffer", "retry_dedup_ring", "mat",
                "sync_unit"):
        assert state.components[key] > 0
    params = CBoardParams()
    assert state.components["retry_dedup_ring"] == params.retry_buffer_bytes


def test_rdma_state_grows_with_clients():
    few = rdma_onchip_state(clients=16)
    many = rdma_onchip_state(clients=4096)
    assert many.total_bytes > few.total_bytes
    assert (many.components["qp_state"]
            == 4096 / 16 * few.components["qp_state"])


def test_rdma_state_grows_with_hosted_memory():
    small = rdma_onchip_state(clients=100, hosted_bytes=64 << 30)
    big = rdma_onchip_state(clients=100, hosted_bytes=4 << 40)
    assert big.components["pte_cache"] > small.components["pte_cache"]


def test_rdma_fixed_cache_mode():
    fixed = rdma_onchip_state(clients=10_000, full_working_set=False)
    # With fixed caches the totals stop growing — but then misses pay
    # PCIe crossings (Figures 4-5).
    assert fixed.total_bytes == rdma_onchip_state(
        clients=100_000, full_working_set=False).total_bytes


def test_gbn_state_linear_in_connections():
    one = gbn_onchip_state(connections=1)
    thousand = gbn_onchip_state(connections=1000)
    assert thousand.total_bytes == 1000 * one.total_bytes


#: ``benchmarks/test_onchip_state.py``'s sweep with 1 TB hosted: the exact
#: totals its table prints, so a change to any per-entry size shows here.
ONCHIP_CLIENTS = [16, 64, 256, 1024, 4096]
ONCHIP_TOTALS = {
    "clio": [37_120] * 5,
    "rdma": [8_395_120, 8_414_656, 8_492_800, 8_805_376, 10_055_680],
    "gbn": [801_792, 3_207_168, 12_828_672, 51_314_688, 205_258_752],
}


def test_onchip_totals_are_pinned():
    hosted = 1 << 40
    totals = {
        "clio": [clio_onchip_state(clients=clients,
                                   hosted_bytes=hosted).total_bytes
                 for clients in ONCHIP_CLIENTS],
        "rdma": [rdma_onchip_state(clients=clients,
                                   hosted_bytes=hosted).total_bytes
                 for clients in ONCHIP_CLIENTS],
        "gbn": [gbn_onchip_state(connections=clients).total_bytes
                for clients in ONCHIP_CLIENTS],
    }
    assert totals == ONCHIP_TOTALS


def test_state_grows_with_window():
    assert connection_state_bytes(64) > connection_state_bytes(8)
    assert connection_state_bytes(1) > CONNECTION_FIXED_BYTES


def test_clio_beats_alternatives_at_scale():
    clients = 1000
    clio = clio_onchip_state(clients=clients).total_bytes
    rdma = rdma_onchip_state(clients=clients).total_bytes
    gbn = gbn_onchip_state(connections=clients).total_bytes
    assert clio < rdma
    assert clio < gbn
