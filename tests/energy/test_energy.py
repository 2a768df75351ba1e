"""Tests for the energy, CapEx, and FPGA-utilization models."""

import pytest

from repro.energy.capex import MemoryMedia, compare_mn_options
from repro.energy.fpga_util import (
    FPGA_UTILIZATION,
    clio_components,
    clio_total,
    offload_headroom_pct,
    onchip_memory_budget_bytes,
)
from repro.energy.power import SystemPowerProfile, default_profiles
from repro.params import EnergyParams, SEC


def test_energy_converts_busy_time_to_joules():
    profile = SystemPowerProfile("test", mn_watts=3.0, cn_watts=2.0)
    report = profile.energy(2 * SEC)
    assert report.mn_joules == pytest.approx(6.0)
    assert report.cn_joules == pytest.approx(4.0)
    assert report.total_joules == pytest.approx(10.0)


def test_fpga_cheaper_than_cpu_for_same_busy_time():
    """Clio's FPGA + ARM draws less at the MN than HERD's Xeon cores."""
    profiles = default_profiles(EnergyParams())
    clio = profiles["Clio"].energy(SEC)
    herd = profiles["HERD"].energy(SEC)
    assert clio.mn_joules < herd.mn_joules
    assert clio.cn_joules == herd.cn_joules


def test_capex_dram_ratios_match_paper_band():
    """Paper: server MN costs 1.1-1.5x and draws 1.9-2.7x vs CBoard (1TB DRAM)."""
    comparison = compare_mn_options(capacity_bytes=1 << 40,
                                    media=MemoryMedia.DRAM)
    assert 1.1 <= comparison.cost_ratio <= 1.5
    assert 1.9 <= comparison.power_ratio <= 2.7


def test_capex_optane_ratios_match_paper_band():
    """Paper: 1.4-2.5x cost and 5.1-8.6x power with Optane."""
    comparison = compare_mn_options(capacity_bytes=1 << 40,
                                    media=MemoryMedia.OPTANE)
    assert 1.4 <= comparison.cost_ratio <= 2.5
    assert 5.1 <= comparison.power_ratio <= 8.6


def test_fpga_utilization_rows_valid():
    assert len(FPGA_UTILIZATION) == 6
    for row in FPGA_UTILIZATION:
        assert 0 <= row.logic_pct <= 100
        assert 0 <= row.memory_pct <= 100


def test_clio_uses_less_than_prior_stacks():
    """Figure 19: Clio total below both StRoM and Tonic on both axes."""
    total = clio_total()
    others = [row for row in FPGA_UTILIZATION if "Clio" not in row.system]
    for other in others:
        assert total.logic_pct < other.logic_pct
        assert total.memory_pct < other.memory_pct


def test_components_are_small_fraction_of_total():
    total = clio_total()
    for component in clio_components():
        assert component.logic_pct < total.logic_pct
        assert component.memory_pct < total.memory_pct


def test_offload_headroom_over_two_thirds():
    """Paper: 'leaves most FPGA resources available for application offloads'."""
    assert offload_headroom_pct() >= 65.0


def test_onchip_memory_budget_near_paper_claim():
    """Paper: TBs + thousands of processes with only ~1.5 MB on-chip memory."""
    budget = onchip_memory_budget_bytes()
    assert budget < 2 * (1 << 20)
