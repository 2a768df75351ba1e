"""CXL pool unit tests: latency model, coherence, capacity QoS.

The latency constants are pinned arithmetic, not measurements: a 64B
load is decode + hop + device load + one line on the port, and every
test below spells the sum out so a model change must touch the
expectation deliberately.
"""

import pytest

from repro.baselines.api import create_backend
from repro.baselines.cxl import CXLAccessError, CXLError, CXLPool
from repro.distributed.tenancy import TenantQuotaExceeded
from repro.params import SEC, ClioParams, CXLParams, QoSParams, TenantConfig
from repro.sim import Environment

MB = 1 << 20


def make_pool(qos=None, cxl=None, capacity=64 * MB, shaping=False):
    params = ClioParams.prototype()
    from dataclasses import replace
    if qos is not None:
        params = replace(params, qos=qos)
    if cxl is not None:
        params = replace(params, cxl=cxl)
    env = Environment()
    return env, CXLPool(env, params, capacity=capacity, shaping=shaping)


def test_zero_capacity_is_rejected_not_defaulted():
    with pytest.raises(ValueError, match="capacity"):
        make_pool(capacity=0)


def run(env, generator):
    holder = {}

    def wrapper():
        holder["result"] = yield from generator

    env.run(until=env.process(wrapper()))
    return holder["result"]


def line_wire_ns(params: CXLParams) -> int:
    return max(1, (params.line_bytes * 8 * SEC) // params.port_rate_bps)


def test_single_line_load_latency():
    env, pool = make_pool()
    host = pool.host("h0")
    cxl = pool.cxl

    def app():
        region = yield from host.alloc(4096)
        yield from host.store(region, 0, b"\x11" * 64)
        data, latency = yield from host.load(region, 0, 64)
        return data, latency

    data, latency = run(env, app())
    assert data == b"\x11" * 64
    # decode + hop + load + one line on the port (no pipelining, no
    # coherence traffic: same host owns the line).
    expected = (cxl.hdm_decode_ns + cxl.switch_hop_ns + cxl.load_ns
                + line_wire_ns(cxl))
    assert latency == expected == 468


def test_single_line_store_latency():
    env, pool = make_pool()
    host = pool.host("h0")
    cxl = pool.cxl

    def app():
        region = yield from host.alloc(4096)
        return (yield from host.store(region, 0, b"\x22" * 64))

    latency = run(env, app())
    expected = (cxl.hdm_decode_ns + cxl.switch_hop_ns + cxl.store_ns
                + line_wire_ns(cxl))
    assert latency == expected == 418


def test_multi_line_read_pipelines():
    env, pool = make_pool()
    host = pool.host("h0")
    cxl = pool.cxl

    def app():
        region = yield from host.alloc(4096)
        yield from host.store(region, 0, b"\x33" * 1024)
        _, latency = yield from host.load(region, 0, 1024)
        return latency

    latency = run(env, app())
    lines = 1024 // cxl.line_bytes
    expected = (cxl.hdm_decode_ns + cxl.switch_hop_ns + cxl.load_ns
                + (lines - 1) * cxl.line_pipeline_ns
                + lines * line_wire_ns(cxl))
    assert latency == expected == 1188


def test_alloc_rounds_to_lines_and_reuses_freed_ranges():
    env, pool = make_pool()
    host = pool.host("h0")

    def app():
        region = yield from host.alloc(100)
        assert region.size == 128          # two 64B lines
        base = region.base_pa
        yield from host.free(region)
        again = yield from host.alloc(128)
        assert again.base_pa == base       # first-fit reuse
        yield from host.free(again)

    run(env, app())


def test_access_after_free_raises():
    env, pool = make_pool()
    host = pool.host("h0")

    def app():
        region = yield from host.alloc(4096)
        yield from host.free(region)
        with pytest.raises(CXLAccessError, match="not mapped"):
            yield from host.load(region, 0, 64)

    run(env, app())


def test_out_of_window_access_raises():
    env, pool = make_pool()
    host = pool.host("h0")

    def app():
        region = yield from host.alloc(256)
        with pytest.raises(CXLAccessError, match="outside HDM window"):
            yield from host.load(region, 192, 128)

    run(env, app())


def test_pool_exhaustion_raises():
    env, pool = make_pool(capacity=1 * MB)
    host = pool.host("h0")

    def app():
        with pytest.raises(CXLError, match="pool exhausted"):
            yield from host.alloc(2 * MB)
        yield env.timeout(0)

    run(env, app())


# -- coherence ----------------------------------------------------------------


def test_dirty_remote_line_is_back_invalidated():
    env, pool = make_pool()
    writer = pool.host("h0")
    reader = pool.host("h1")
    cxl = pool.cxl

    def app():
        region = yield from writer.alloc(4096)
        yield from writer.store(region, 0, b"\x44" * 64)   # h0 owns, dirty
        data, latency = yield from reader.load(region, 0, 64)
        return data, latency

    data, latency = run(env, app())
    assert data == b"\x44" * 64
    assert pool.back_invalidations == 1
    expected = (cxl.hdm_decode_ns + cxl.switch_hop_ns + cxl.load_ns
                + cxl.back_invalidate_ns + line_wire_ns(cxl))
    assert latency == expected


def test_store_snoops_clean_remote_copy():
    env, pool = make_pool()
    a = pool.host("h0")
    b = pool.host("h1")

    def app():
        region = yield from a.alloc(4096)
        yield from a.load(region, 0, 64)       # h0 holds the line clean
        yield from b.store(region, 0, b"\x55" * 64)

    run(env, app())
    assert pool.snoops == 1
    assert pool.back_invalidations == 0


def test_coherence_off_is_free():
    env, pool = make_pool(cxl=CXLParams(coherence=False))
    a = pool.host("h0")
    b = pool.host("h1")

    def app():
        region = yield from a.alloc(4096)
        yield from a.store(region, 0, b"\x66" * 64)
        yield from b.load(region, 0, 64)

    run(env, app())
    assert pool.back_invalidations == 0
    assert pool.snoops == 0


def test_ping_pong_recalls_every_round():
    env, pool = make_pool()
    a = pool.host("h0")
    b = pool.host("h1")

    def app():
        region = yield from a.alloc(4096)
        for _ in range(10):
            yield from a.store(region, 0, b"\x77" * 64)
            yield from b.store(region, 0, b"\x88" * 64)

    run(env, app())
    # Every store but the very first finds the other host's dirty copy.
    assert pool.back_invalidations == 19


# -- tenancy: quotas and shaping ----------------------------------------------


TENANTS = QoSParams(tenants=(
    TenantConfig(name="gold", clients=("h0",), share=0.6,
                 quota_bytes=1 * MB),
    TenantConfig(name="best-effort", clients=("h1",), share=0.4),
))


def test_quota_rejects_over_allocation():
    env, pool = make_pool(qos=TENANTS)
    host = pool.host("h0", tenant="gold")

    def app():
        region = yield from host.alloc(768 * 1024)
        with pytest.raises(TenantQuotaExceeded, match="gold"):
            yield from host.alloc(512 * 1024)
        yield from host.free(region)
        # Freed capacity is creditable again.
        again = yield from host.alloc(1 * MB)
        yield from host.free(again)

    run(env, app())
    assert pool.tenants.usage("gold") == 0
    assert pool.tenants.rejections == 1


def test_unquotaed_tenant_is_uncapped():
    env, pool = make_pool(qos=TENANTS)
    host = pool.host("h1", tenant="best-effort")

    def app():
        region = yield from host.alloc(8 * MB)
        yield from host.free(region)

    run(env, app())


def test_host_cannot_switch_tenants():
    env, pool = make_pool(qos=TENANTS)
    pool.host("h0", tenant="gold")
    with pytest.raises(CXLError, match="already attached"):
        pool.host("h0", tenant="best-effort")


def test_shaping_isolates_port_serialization():
    """Unshaped, two tenants serialize on one port; shaped, each runs on
    its own slice — the victim's wait drops, the aggressor pays its
    reserved (smaller) rate."""

    def contention(shaped):
        env, pool = make_pool(qos=TENANTS, shaping=shaped)
        gold = pool.host("h0", tenant="gold")
        noisy = pool.host("h1", tenant="best-effort")
        out = {}

        def app():
            mine = yield from gold.alloc(64 * 1024)
            theirs = yield from noisy.alloc(64 * 1024)

            def flood():
                for _ in range(50):
                    yield from noisy.store(theirs, 0, b"\xaa" * 4096)

            env.process(flood())
            yield env.timeout(200)
            _, latency = yield from gold.load(mine, 0, 64)
            out["latency"] = latency

        env.run(until=env.process(app()))
        return out["latency"]

    assert contention(shaped=True) < contention(shaped=False)


def test_backend_tenant_comes_from_params():
    from dataclasses import replace

    from repro.params import BackendParams

    params = replace(ClioParams.prototype(), qos=TENANTS,
                     backend=BackendParams(tenant="gold"))
    host = create_backend("cxl", params=params)

    def app():
        region = yield from host.alloc(4096)
        yield from host.store(region, 0, b"\x01" * 64)
        yield from host.free(region)
        return region

    region = host.env.run(until=host.env.process(app()))
    assert host.tenant == region.tenant == "gold"


def test_pool_metrics_registered():
    from repro.telemetry.metrics import MetricsRegistry

    registry = MetricsRegistry()
    from dataclasses import replace
    params = replace(ClioParams.prototype(), qos=TENANTS)
    env = Environment()
    pool = CXLPool(env, params, capacity=16 * MB, registry=registry)
    host = pool.host("h0", tenant="gold")

    def app():
        region = yield from host.alloc(4096)
        yield from host.store(region, 0, b"\x02" * 64)

    env.run(until=env.process(app()))
    snapshot = registry.snapshot()
    assert snapshot["cxl.pool.stores"] == 1
    assert snapshot["cxl.tenant.gold.used_bytes"] == 4096
    assert snapshot["cxl.tenant.gold.bytes_moved"] == 64
    assert "cxl.tenant.best-effort.used_bytes" in snapshot
