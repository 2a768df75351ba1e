"""Tests for the fault injector and the heartbeat health monitor."""

import pytest

from repro.cluster import ClioCluster
from repro.faults.injector import FaultInjector
from repro.faults.schedule import FaultSchedule

MB = 1 << 20
US = 1_000
MS = 1_000_000


def make_cluster(**kwargs):
    kwargs.setdefault("num_cns", 1)
    kwargs.setdefault("mn_capacity", 64 * MB)
    return ClioCluster(seed=5, **kwargs)


def test_injector_applies_crash_and_restart_on_time():
    cluster = make_cluster()
    schedule = FaultSchedule().crash_board(100 * US, "mn0",
                                           restart_after_ns=50 * US)
    injector = FaultInjector(cluster, schedule)
    injector.arm()
    observed = {}

    def probe():
        yield cluster.env.timeout(120 * US)
        observed["mid"] = cluster.mn.alive
        yield cluster.env.timeout(50 * US)
        observed["after"] = cluster.mn.alive

    cluster.run(until=cluster.env.process(probe()))
    assert observed == {"mid": False, "after": True}
    assert [(a.at_ns, a.kind.value, a.applied) for a in injector.applied] == [
        (100 * US, "board_crash", True),
        (150 * US, "board_restart", True),
    ]


def test_injector_arm_is_relative_to_now():
    cluster = make_cluster()
    schedule = FaultSchedule().crash_board(10 * US, "mn0")
    injector = FaultInjector(cluster, schedule)

    def arm_later():
        yield cluster.env.timeout(500 * US)
        injector.arm()
        yield cluster.env.timeout(20 * US)

    cluster.run(until=cluster.env.process(arm_later()))
    assert injector.applied[0].at_ns == 510 * US


def test_injector_skips_redundant_transitions():
    cluster = make_cluster()
    cluster.mn.crash()   # already down before the schedule fires
    schedule = FaultSchedule().crash_board(10 * US, "mn0")
    injector = FaultInjector(cluster, schedule)
    injector.arm()
    cluster.run(until=20 * US)
    assert injector.applied[0].applied is False
    assert injector.applied[0].note == "already crashed"
    assert cluster.mn.crashes == 1   # only the manual crash


def test_injector_rejects_double_arm_and_unknown_board():
    cluster = make_cluster()
    injector = FaultInjector(cluster,
                             FaultSchedule().crash_board(10 * US, "mn0"))
    injector.arm()
    with pytest.raises(ValueError):
        injector.arm()
    ghost = FaultInjector(cluster,
                          FaultSchedule().crash_board(10 * US, "ghost"))
    ghost.arm()
    with pytest.raises(KeyError):
        cluster.run(until=cluster.env.now + 20 * US)


def test_loss_burst_restores_link_rates():
    cluster = make_cluster()
    uplink, downlink = cluster.topology.links_for("cn0")
    schedule = FaultSchedule().loss_burst(10 * US, "cn0", 30 * US, rate=0.4)
    injector = FaultInjector(cluster, schedule)
    injector.arm()
    observed = {}

    def probe():
        yield cluster.env.timeout(20 * US)
        observed["during"] = (uplink.loss_rate, downlink.loss_rate)
        yield cluster.env.timeout(30 * US)
        observed["after"] = (uplink.loss_rate, downlink.loss_rate)

    cluster.run(until=cluster.env.process(probe()))
    assert observed["during"] == (0.4, 0.4)
    assert observed["after"] == (0.0, 0.0)


def test_stall_gate_parks_slow_path_work():
    cluster = make_cluster()
    schedule = FaultSchedule().stall_slowpath(0, "mn0", 200 * US)
    injector = FaultInjector(cluster, schedule)
    injector.arm()
    result = {}

    def app():
        yield cluster.env.timeout(10 * US)   # stall is active now
        start = cluster.env.now
        response = yield from cluster.mn.slow_path.handle_alloc(1, 4 * MB)
        result["ok"] = response.ok
        result["waited_ns"] = cluster.env.now - start

    cluster.run(until=cluster.env.process(app()))
    assert result["ok"]
    # The alloc had to sit out the rest of the stall window (~190 us).
    assert result["waited_ns"] >= 180 * US
    assert cluster.mn.slow_path.stalled_requests >= 1


def test_health_monitor_detects_crash_with_lag_and_recovery():
    from repro.faults.health import HealthMonitor
    cluster = make_cluster()
    health = HealthMonitor(cluster.env, cluster.mns)
    health.start()
    # Heartbeats every 100 us, three misses to declare a board dead: the
    # crash at 60 us is missed at 100, 200 and 300 us, and the board is
    # back in time for the 600 us heartbeat.
    schedule = FaultSchedule().crash_board(60 * US, "mn0",
                                           restart_after_ns=500 * US)
    FaultInjector(cluster, schedule).arm()
    timeline = {}

    def probe():
        yield cluster.env.timeout(150 * US)
        # One missed heartbeat so far: belief lags the crash.
        timeline["early_belief"] = health.is_alive("mn0")
        yield cluster.env.timeout(200 * US)
        timeline["detected"] = health.is_alive("mn0")
        timeline["dead"] = health.dead_boards()
        yield cluster.env.timeout(300 * US)
        timeline["recovered"] = health.is_alive("mn0")

    cluster.run(until=cluster.env.process(probe()))
    assert timeline["early_belief"] is True      # detection latency is real
    assert timeline["detected"] is False
    assert timeline["dead"] == ["mn0"]
    assert timeline["recovered"] is True
    flips = [(t.board, t.alive) for t in health.transitions]
    assert flips == [("mn0", False), ("mn0", True)]
