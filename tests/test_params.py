"""Tests for calibration parameters and profiles."""

import ast
import dataclasses
from pathlib import Path

import pytest

import repro.params
from repro.params import (
    AllocParams,
    BackendParams,
    Bounded,
    CacheParams,
    CBoardParams,
    CLibParams,
    CloverParams,
    ClioParams,
    CXLParams,
    GBPS,
    MB,
    NetworkParams,
    QoSParams,
    RDMAParams,
    TenantConfig,
    transmit_time_ns,
)
from repro.rack.membership import RackConfig
from repro.workloads.churn import ChurnScenario
from repro.workloads.ycsb import YCSBConfig

#: Every dataclass ``params.py`` defines.
PARAMS_CLASSES = [cls for cls in vars(repro.params).values()
                  if isinstance(cls, type) and dataclasses.is_dataclass(cls)
                  and cls.__module__ == repro.params.__name__]


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
    with pytest.raises(ValueError):
        CXLParams(line_bytes=48)          # not a power of two


def test_backend_params_defaults_and_validation():
    from repro.params import BackendParams, ClioParams

    backend = BackendParams()
    assert backend.dram_capacity is None
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

    from dataclasses import fields

    assert [field.name for field in fields(TenantConfig)] == [
        "name", "clients", "share"]
    with pytest.raises(ValueError):
        TenantConfig(name="", clients=("cn0",), share=0.5)
    assert TenantConfig(name="x", share=0.5).clients == ()


@pytest.mark.parametrize("params_cls, field, typo", [
    (CLibParams, "cc_algorithm", "swfit"),
    (AllocParams, "pa_strategy", "slabs"),
    (AllocParams, "pa_strategy", "slab"),
    (AllocParams, "pa_strategy", "buddy"),
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
              for cls in PARAMS_CLASSES
              for field in dataclasses.fields(cls)
              if field.name not in loaded]
    assert unread == [], f"params nothing reads: {unread}"


#: Fields with no default, filled in so one other field can be varied.
REQUIRED = {
    TenantConfig: {"name": "t"},
    ChurnScenario: {"name": "c", "description": ""},
    YCSBConfig: {"name": "Y", "set_fraction": 0.5},
}


def test_defaults_and_profiles_are_in_range():
    """Every default and every named profile passes the declared bounds,
    and every config but the bundle is checked (its fields are configs)."""
    for cls in PARAMS_CLASSES:
        assert issubclass(cls, Bounded) or cls is ClioParams, cls
        cls(**REQUIRED.get(cls, {}))
    for profile in ("prototype", "asic_projection", "cloudlab"):
        getattr(ClioParams, profile)()


@pytest.mark.parametrize("cls, field, bad", [
    # Declared bounds; in brackets, the component that trusts the bound.
    (CBoardParams, "cycle_ns", 0),
    (CBoardParams, "dram_capacity", 0),
    (CBoardParams, "dram_access_ns", -1),                # [DRAM]
    (CBoardParams, "dram_bandwidth_bps", 0),             # [DRAM]
    (CBoardParams, "tlb_entries", 0),                    # [TLB]
    (CBoardParams, "page_table_slots_per_bucket", 0),    # [HashPageTable]
    (CBoardParams, "page_table_overprovision", 0.5),     # [HashPageTable]
    (CBoardParams, "default_page_size", 3 * MB),
    (CBoardParams, "port_rate_bps", 0),                  # [Link]
    (CBoardParams, "arm_cores", 1),
    (CBoardParams, "arm_pa_alloc_ns", 0),
    (CBoardParams, "arm_pa_alloc_ns", -1),               # [AsyncBuffer]
    (CBoardParams, "async_buffer_depth", 0),             # [AsyncBuffer]
    (NetworkParams, "mtu", 0),
    (NetworkParams, "cn_nic_rate_bps", 0),               # [Link]
    (NetworkParams, "switch_rate_bps", 0),               # [Link]
    (NetworkParams, "propagation_ns", -1),               # [Link]
    (NetworkParams, "loss_rate", 1.5),                   # [Link]
    (NetworkParams, "corruption_rate", 2.0),             # [Link]
    (NetworkParams, "jitter_ns", -1),                    # [Link]
    (CLibParams, "timeout_ns", 0),
    (CLibParams, "max_retries", -1),
    (CLibParams, "cwnd_multiplicative_decrease", 1.5),
    (CLibParams, "batch_max_ops", 0),
    (CLibParams, "batch_window_ns", -1),
    (CacheParams, "line_bytes", 4),
    (CacheParams, "line_bytes", 48),
    (CacheParams, "capacity_lines", 1),
    (CacheParams, "policy", "around"),
    (CacheParams, "hit_ns", 0),
    (CacheParams, "dir_process_ns", 0),
    (CacheParams, "flush_retry_ns", 0),
    (AllocParams, "arena_batch_pages", 0),
    (AllocParams, "arena_buffer_depth", 0),              # [BufferBank]
    (TenantConfig, "share", 0.0),
    (TenantConfig, "share", 1.5),
    (QoSParams, "burst_bytes", 0),
    (CXLParams, "line_bytes", 48),
    (CXLParams, "line_bytes", 4),
    (CXLParams, "load_ns", 0),
    (CXLParams, "store_ns", 0),
    (CXLParams, "port_rate_bps", 0),
    (CXLParams, "hdm_decode_ns", -1),
    (CXLParams, "switch_hop_ns", -1),
    (CXLParams, "line_pipeline_ns", -1),
    (CXLParams, "hdm_program_ns", -1),
    (CXLParams, "snoop_ns", -1),
    (CXLParams, "back_invalidate_ns", -1),
    (CXLParams, "back_invalidate_pipelined_ns", -1),
    (BackendParams, "dram_capacity", 0),
    (BackendParams, "capacity_slots", 0),
    (CloverParams, "cursor_chase_probability", 1.5),
    (RackConfig, "boards", 0),
    (RackConfig, "tors", 0),
    (RackConfig, "spares", -1),
    (ChurnScenario, "ops", 0),
    (ChurnScenario, "pids", 0),
    (ChurnScenario, "large_frac", 1.5),
    (ChurnScenario, "longlived_frac", -0.1),
    (ChurnScenario, "prefill_frac", 1.0),
    (YCSBConfig, "set_fraction", 1.5),
    # Rules relating two fields.
    (CLibParams, "slow_timeout_ns", 1),                  # < timeout_ns
    (CLibParams, "cwnd_init", 0.05),                     # < cwnd_min
    (CLibParams, "cwnd_init", 300.0),                    # > cwnd_max
    (AllocParams, "arena_stash_max", 8),                 # < batch pages
    (TenantConfig, "name", ""),
])
def test_out_of_range_value_names_its_field(cls, field, bad):
    """One row per range: the value fails where it is written, and the
    error names the field as ``Class.field``."""
    kwargs = {**REQUIRED.get(cls, {}), field: bad}
    with pytest.raises(ValueError, match=rf"^{cls.__name__}\.{field} must"):
        cls(**kwargs)
