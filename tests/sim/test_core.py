"""Unit tests for the discrete-event engine."""

import pytest

from repro.sim import Environment, Event, SimulationError


def test_timeout_advances_clock():
    env = Environment()

    def proc():
        yield env.timeout(10)
        assert env.now == 10
        yield env.timeout(5)
        assert env.now == 15

    env.process(proc())
    env.run()
    assert env.now == 15


def test_zero_delay_timeout_fires_at_same_time():
    env = Environment()
    seen = []

    def proc():
        yield env.timeout(0)
        seen.append(env.now)

    env.process(proc())
    env.run()
    assert seen == [0]


def test_negative_delay_rejected():
    env = Environment()
    with pytest.raises(ValueError):
        env.timeout(-1)


def test_timeout_carries_value():
    env = Environment()
    results = []

    def proc():
        value = yield env.timeout(3, value="payload")
        results.append(value)

    env.process(proc())
    env.run()
    assert results == ["payload"]


def test_process_return_value():
    env = Environment()

    def child():
        yield env.timeout(7)
        return 42

    def parent():
        result = yield env.process(child())
        assert result == 42
        return result * 2

    proc = env.process(parent())
    env.run()
    assert proc.value == 84


def test_event_succeed_wakes_waiter():
    env = Environment()
    gate = env.event()
    woke_at = []

    def waiter():
        value = yield gate
        woke_at.append((env.now, value))

    def opener():
        yield env.timeout(100)
        gate.succeed("open")

    env.process(waiter())
    env.process(opener())
    env.run()
    assert woke_at == [(100, "open")]


def test_event_double_trigger_rejected():
    env = Environment()
    event = env.event()
    event.succeed(1)
    with pytest.raises(SimulationError):
        event.succeed(2)


def test_event_fail_propagates_into_process():
    env = Environment()
    gate = env.event()
    caught = []

    def waiter():
        try:
            yield gate
        except RuntimeError as exc:
            caught.append(str(exc))

    def failer():
        yield env.timeout(1)
        gate.fail(RuntimeError("boom"))

    env.process(waiter())
    env.process(failer())
    env.run()
    assert caught == ["boom"]


def test_unhandled_process_exception_surfaces_to_run():
    env = Environment()

    def bad():
        yield env.timeout(1)
        raise ValueError("unhandled")

    env.process(bad())
    with pytest.raises(ValueError, match="unhandled"):
        env.run()


def test_yield_non_event_is_error():
    env = Environment()

    def bad():
        yield 5

    env.process(bad())
    with pytest.raises(SimulationError, match="non-event"):
        env.run()


def test_run_until_time_stops_clock_exactly():
    env = Environment()
    ticks = []

    def ticker():
        while True:
            yield env.timeout(10)
            ticks.append(env.now)

    env.process(ticker())
    env.run(until=35)
    assert env.now == 35
    assert ticks == [10, 20, 30]


def test_run_until_event_returns_value():
    env = Environment()

    def proc():
        yield env.timeout(4)
        return "done"

    result = env.run(until=env.process(proc()))
    assert result == "done"
    assert env.now == 4


def test_run_until_past_time_rejected():
    env = Environment(initial_time=100)
    with pytest.raises(ValueError):
        env.run(until=50)


def test_simultaneous_events_fire_in_insertion_order():
    env = Environment()
    order = []

    def proc(tag):
        yield env.timeout(5)
        order.append(tag)

    for tag in ("a", "b", "c"):
        env.process(proc(tag))
    env.run()
    assert order == ["a", "b", "c"]


def test_all_of_waits_for_every_event():
    env = Environment()
    done = []

    def proc():
        t1 = env.timeout(5, value="x")
        t2 = env.timeout(9, value="y")
        results = yield env.all_of([t1, t2])
        done.append((env.now, sorted(results.values())))

    env.process(proc())
    env.run()
    assert done == [(9, ["x", "y"])]


def test_all_of_empty_fires_immediately():
    env = Environment()
    done = []

    def proc():
        yield env.all_of([])
        done.append(env.now)

    env.process(proc())
    env.run()
    assert done == [0]


def test_step_on_empty_queue_raises():
    env = Environment()
    with pytest.raises(SimulationError):
        env.step()


def test_already_fired_event_resumes_immediately():
    env = Environment()
    fired = env.event()
    fired.succeed("early")
    seen = []

    def proc():
        # Let the event become processed first.
        yield env.timeout(5)
        value = yield fired
        seen.append((env.now, value))

    env.process(proc())
    env.run()
    assert seen == [(5, "early")]
