"""Tests for calibration parameters and profiles."""

import ast
import dataclasses
from pathlib import Path

import pytest

import repro.params
from repro.params import (
    AllocParams,
    CBoardParams,
    CLibParams,
    ClioParams,
    GBPS,
    RDMAParams,
    transmit_time_ns,
)


def test_transmit_time():
    # 1250 bytes at 10 Gbps = 1000 ns.
    assert transmit_time_ns(1250, 10 * GBPS) == 1000
    assert transmit_time_ns(0, 10 * GBPS) == 1   # floor of one ns
    with pytest.raises(ValueError):
        transmit_time_ns(100, 0)


def test_pipeline_cycles_sum_components():
    params = CBoardParams()
    expected = (params.mat_cycles + params.decode_cycles
                + params.translate_cycles + params.permission_cycles
                + params.response_cycles + params.netstack_cycles)
    assert params.pipeline_cycles == expected


def test_pipeline_ns_fault_adds_bounded_cycles():
    params = CBoardParams()
    delta = params.pipeline_ns(faulted=True) - params.pipeline_ns()
    assert delta == int(round(params.fault_cycles * params.cycle_ns))


def test_asic_projection_scales_clock_and_dram():
    proto = ClioParams.prototype()
    asic = ClioParams.asic_projection()
    assert asic.cboard.cycle_ns < proto.cboard.cycle_ns
    assert asic.cboard.dram_access_ns < proto.cboard.dram_access_ns
    # Everything else carries over.
    assert asic.cboard.tlb_entries == proto.cboard.tlb_entries
    assert asic.network == proto.network


def test_cloudlab_profile_has_bigger_rnic_caches():
    local = ClioParams.prototype()
    cloudlab = ClioParams.cloudlab()
    assert cloudlab.rdma.pte_cache_entries == 4096       # 2^12 (paper)
    assert cloudlab.rdma.pte_cache_entries > local.rdma.pte_cache_entries


def test_params_are_frozen():
    params = ClioParams.prototype()
    with pytest.raises(dataclasses.FrozenInstanceError):
        params.cboard.cycle_ns = 1.0


def test_paper_headline_constants():
    params = ClioParams.prototype()
    assert params.cboard.cycle_ns == 4.0                 # 250 MHz FPGA
    assert params.cboard.datapath_bits == 512
    assert params.cboard.default_page_size == 4 << 20    # 4 MB huge pages
    assert params.cboard.page_table_overprovision == 2.0
    assert params.cboard.retry_buffer_bytes == 30 << 10  # 30 KB
    assert params.rdma.odp_page_fault_ns == 16_800_000   # 16.8 ms
    assert params.rdma.max_mrs == 1 << 18


def test_rdma_profiles_distinct():
    assert RDMAParams().pte_cache_entries == 256
    assert RDMAParams.cloudlab().qp_cache_entries == 1024


def test_cxl_params_defaults():
    from repro.params import CXLParams

    cxl = CXLParams()
    assert cxl.line_bytes == 64
    assert cxl.load_ns == 350 and cxl.store_ns == 300
    assert cxl.coherence
    with pytest.raises(ValueError):
        CXLParams(line_bytes=48)          # not a power of two


def test_backend_params_defaults_and_validation():
    from repro.params import BackendParams, ClioParams

    backend = BackendParams()
    assert backend.dram_capacity is None
    assert backend.tenant == "default"
    with pytest.raises(ValueError):
        BackendParams(dram_capacity=0)
    with pytest.raises(ValueError):
        BackendParams(capacity_slots=0)
    params = ClioParams.prototype()
    assert params.backend == BackendParams()
    assert params.qos.tenants == ()
    assert params.cxl.line_bytes == 64


def test_tenant_config_validation():
    from repro.params import TenantConfig

    tenant = TenantConfig(name="gold", clients=("cn0",), share=0.5,
                          quota_bytes=1 << 20)
    assert tenant.quota_bytes == 1 << 20
    with pytest.raises(ValueError):
        TenantConfig(name="", clients=("cn0",), share=0.5)
    # Empty clients is allowed: a capacity-only tenant (controller
    # quotas) has no CNs to classify at the switch.
    assert TenantConfig(name="x", share=0.5).clients == ()
    with pytest.raises(ValueError):
        TenantConfig(name="x", clients=("cn0",), share=0.5, quota_bytes=-1)


@pytest.mark.parametrize("params_cls, field, typo", [
    (CLibParams, "cc_algorithm", "swfit"),
    (AllocParams, "pa_strategy", "slabs"),
    (AllocParams, "va_policy", "firstfit"),
])
def test_registry_names_are_checked_at_construction(params_cls, field, typo):
    """A misspelt algorithm, strategy or policy fails where it is
    written, not at the first request that looks it up."""
    with pytest.raises(ValueError, match=typo):
        params_cls(**{field: typo})


def test_every_params_field_is_read_somewhere():
    """A field nothing reads is a dead knob that still looks calibrated:
    every field of every dataclass in ``params.py`` must be loaded as an
    attribute somewhere in ``src/``, ``benchmarks/`` or ``examples/``."""
    root = Path(__file__).parents[1]
    loaded = {node.attr
              for folder in ("src", "benchmarks", "examples")
              for path in (root / folder).rglob("*.py")
              for node in ast.walk(ast.parse(path.read_text()))
              if isinstance(node, ast.Attribute)
              and isinstance(node.ctx, ast.Load)}
    unread = [f"{cls.__name__}.{field.name}"
              for cls in vars(repro.params).values()
              if isinstance(cls, type) and dataclasses.is_dataclass(cls)
              and cls.__module__ == repro.params.__name__
              for field in dataclasses.fields(cls)
              if field.name not in loaded]
    assert unread == [], f"params nothing reads: {unread}"
