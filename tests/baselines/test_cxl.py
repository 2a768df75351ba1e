"""CXL pool unit tests: latency model, coherence, the shared port.

The latency constants are pinned arithmetic, not measurements: a 64B
load is decode + hop + device load + one line on the port, and every
test below spells the sum out so a model change must touch the
expectation deliberately.
"""

import pytest

from repro.baselines.cxl import CXLAccessError, CXLError, CXLPool
from repro.params import SEC, ClioParams, CXLParams
from repro.sim import Environment

MB = 1 << 20


def make_pool(capacity=64 * MB):
    env = Environment()
    return env, CXLPool(env, ClioParams.prototype(), capacity=capacity)


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
    """Windows are whole lines, carved from fresh space first; once the
    pool's end is reached, a freed range is handed out again."""
    env, pool = make_pool(capacity=1 * MB)
    host = pool.host("h0")

    def app():
        region = yield from host.alloc(100)
        assert region.size == 128          # two 64B lines
        yield from host.free(region)
        rest = yield from host.alloc(1 * MB - 128)
        assert rest.base_pa == 128         # fresh space first
        again = yield from host.alloc(128)
        assert again.base_pa == region.base_pa

    run(env, app())


def test_freed_neighbours_merge():
    """Two freed neighbours hold one window of their joint size."""
    env, pool = make_pool(capacity=1 * MB)
    host = pool.host("h0")

    def app():
        first = yield from host.alloc(MB // 2)
        second = yield from host.alloc(MB // 2)
        yield from host.free(first)
        yield from host.free(second)
        whole = yield from host.alloc(1 * MB)
        assert whole.base_pa == 0

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


# -- the shared port -----------------------------------------------------------


def test_load_waits_on_the_one_port_behind_another_hosts_stores():
    """Every host's lines serialize onto the one pool port: a 64 B load
    issued 200 ns into another host's 4 KB store waits out the rest of
    that store's 64 lines, then pays its own line."""
    env, pool = make_pool()
    reader = pool.host("h0")
    writer = pool.host("h1")
    cxl = pool.cxl
    wire = line_wire_ns(cxl)

    def app():
        mine = yield from reader.alloc(4096)
        theirs = yield from writer.alloc(64 * 1024)

        def stream():
            for index in range(4):
                yield from writer.store(theirs, index * 4096,
                                        b"\xaa" * 4096)

        streaming = env.process(stream())
        yield env.timeout(200)
        _, latency = yield from reader.load(mine, 0, 64)
        yield streaming
        return latency

    latency = run(env, app())
    wait = 64 * wire - 200
    assert wait > 0
    assert latency == (cxl.hdm_decode_ns + cxl.switch_hop_ns + cxl.load_ns
                       + wait + wire)
    # The writer's next store issues after its previous one finished, so
    # the load's wait is the only one.
    assert pool.port_wait_ns == wait
    assert (pool.loads, pool.stores) == (1, 4)
    assert pool.lines_moved == 4 * 64 + 1
    assert pool.snoops == pool.back_invalidations == 0
