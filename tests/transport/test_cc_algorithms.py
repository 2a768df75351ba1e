"""Tests for the pluggable congestion-control algorithms (R7)."""

import pytest

from dataclasses import replace

from repro.params import CLibParams, ClioParams
from repro.transport.congestion import (
    CC_ALGORITHMS,
    CongestionController,
    StaticWindowController,
    TimelyController,
    make_congestion_controller,
)

US = 1000


def test_factory_builds_named_algorithms():
    for name, cls in CC_ALGORITHMS.items():
        params = CLibParams(cc_algorithm=name)
        controller = make_congestion_controller(params)
        assert isinstance(controller, cls)
        assert controller.name == name


def test_factory_rejects_unknown_algorithm():
    with pytest.raises(ValueError, match="CLibParams.cc_algorithm"):
        make_congestion_controller(CLibParams(cc_algorithm="warp"))


def test_static_window_never_adapts():
    controller = StaticWindowController(CLibParams())
    initial = controller.cwnd
    for _ in range(50):
        controller.on_send()
        controller.on_ack(rtt_ns=10 ** 9)    # terrible RTT
    controller.on_send()
    controller.on_timeout()
    assert controller.cwnd == initial
    assert controller.decreases == 0


def test_timely_grows_on_low_flat_rtt():
    controller = TimelyController(CLibParams())
    before = controller.cwnd
    for _ in range(10):
        controller.on_send()
        controller.on_ack(rtt_ns=2 * US)     # well under target, flat
    assert controller.cwnd > before


def test_timely_shrinks_on_rising_rtt():
    params = CLibParams()
    controller = TimelyController(params)
    # Feed a steeply rising RTT series above target.
    rtt = params.target_rtt_ns
    controller.on_send()
    controller.on_ack(rtt_ns=rtt)
    before = controller.cwnd
    for step in range(1, 8):
        controller.on_send()
        controller.on_ack(rtt_ns=rtt + step * 10 * US)
    assert controller.cwnd < before
    assert controller.decreases > 0


def test_timely_recovers_when_gradient_flattens():
    params = CLibParams()
    controller = TimelyController(params)
    # Rise then hold low: gradient decays, growth resumes.
    controller.on_send()
    controller.on_ack(rtt_ns=params.target_rtt_ns * 4)
    for _ in range(20):
        controller.on_send()
        controller.on_ack(rtt_ns=params.target_rtt_ns // 4)
    assert controller.cwnd > params.cwnd_min


def test_timely_respects_bounds():
    params = CLibParams()
    controller = TimelyController(params)
    for step in range(200):
        controller.on_send()
        controller.on_ack(rtt_ns=params.target_rtt_ns * (2 + step))
    assert controller.cwnd >= params.cwnd_min
    for _ in range(5000):
        controller.on_send()
        controller.on_ack(rtt_ns=0)
    assert controller.cwnd <= params.cwnd_max


def test_end_to_end_with_each_algorithm():
    """The full stack completes a workload under every algorithm."""
    from repro.cluster import ClioCluster
    MB = 1 << 20
    for name in CC_ALGORITHMS:
        base = ClioParams.prototype()
        params = replace(base, clib=replace(base.clib, cc_algorithm=name))
        cluster = ClioCluster(params=params, mn_capacity=256 * MB)
        thread = cluster.cn(0).process("mn0").thread()
        result = {}

        def app():
            va = yield from thread.ralloc(4 * MB)
            yield from thread.rwrite(va, b"algo-" + name.encode())
            result["data"] = yield from thread.rread(va, 5 + len(name))

        cluster.run(until=cluster.env.process(app()))
        assert result["data"] == b"algo-" + name.encode()
        assert cluster.cn(0).transport.congestion("mn0").name == name
