"""Edge cases of the simulation engine's trickiest paths.

Covers the scenarios the hot-path optimizations (slots, timeout pooling,
scheduled callbacks, inline spawns) must not disturb: deadlines equal to
the current time, the already-processed-event fast loop of the shared
resume loop, and bit-for-bit determinism of event ordering.
"""

import pytest

from repro.sim import Environment, SimulationError
from repro.sim.core import Timeout


# -- run(until=...) boundaries -------------------------------------------------


def test_run_until_now_fires_current_timestamp_events():
    """A deadline equal to ``now`` still drains events scheduled at now."""
    env = Environment()
    fired = []

    def immediate():
        fired.append(env.now)
        yield env.timeout(10)
        fired.append(env.now)

    env.process(immediate())
    env.run(until=env.now)
    # The Initialize event at t=0 processed; the t=10 timeout did not.
    assert fired == [0]
    assert env.now == 0
    env.run()
    assert fired == [0, 10]


def test_run_until_past_deadline_rejected():
    env = Environment(initial_time=100)
    with pytest.raises(ValueError):
        env.run(until=50)


def test_run_until_event_queue_drained_raises():
    env = Environment()
    never = env.event()
    with pytest.raises(SimulationError):
        env.run(until=never)


# -- run(until=Event) on already-resolved events --------------------------------


def test_run_until_processed_event_returns_without_draining():
    """Waiting on an event that already fired resolves immediately —
    the rest of the queue must stay untouched."""
    env = Environment()
    target = env.timeout(5, value="done")
    late = []
    env.schedule_callback(1000, lambda: late.append(env.now))
    assert env.run(until=target) == "done"
    assert env.now == 5
    # Second wait on the same (now processed) event: fast path, and the
    # t=1000 callback is still pending afterwards.
    assert env.run(until=target) == "done"
    assert not late
    assert len(env._queue) == 1
    assert env.now == 5


def test_run_until_failed_processed_event_reraises():
    env = Environment()
    boom = env.event()
    boom.fail(RuntimeError("boom"))
    boom._defused = True           # keep step() from re-raising it
    env.run()
    assert boom.processed
    env.schedule_callback(1000, lambda: None)
    with pytest.raises(RuntimeError, match="boom"):
        env.run(until=boom)
    # The failure resolved from the event itself, not from a drain.
    assert len(env._queue) == 1
    assert env.now == 0


# -- already-processed-event chaining in the resume loop ------------------------


def test_yielding_already_processed_events_chains_without_suspending():
    """A process yielding pre-processed events continues in one _resume
    sweep — no extra scheduling round trips, values delivered in order."""
    env = Environment()
    first = env.event().succeed("a")
    second = env.event().succeed("b")
    env.run()                      # both events are now *processed*
    assert first.processed and second.processed
    got = []

    def chained():
        got.append((yield first))
        got.append((yield second))  # still same timestamp, same sweep
        got.append(env.now)

    env.process(chained())
    env.run()
    assert got == ["a", "b", 0]


def test_already_processed_failed_event_raises_into_process():
    env = Environment()
    boom = env.event()
    boom.fail(RuntimeError("boom"))
    boom._defused = True           # keep step() from re-raising it
    env.run()
    caught = []

    def chained():
        ok = yield env.timeout(1, "fine")
        caught.append(ok)
        try:
            yield boom
        except RuntimeError as exc:
            caught.append(str(exc))

    env.process(chained())
    env.run()
    assert caught == ["fine", "boom"]


# -- determinism ---------------------------------------------------------------


def _noisy_workload(env, order, tag_count=5):
    def worker(tag):
        for step in range(20):
            yield env.timeout((tag * 7 + step) % 11)
            order.append((env.now, tag, step))

    for tag in range(tag_count):
        env.process(worker(tag))


def test_identical_runs_produce_identical_event_orders():
    orders = []
    for _ in range(2):
        env = Environment()
        order = []
        _noisy_workload(env, order)
        env.run()
        orders.append(order)
    assert orders[0] == orders[1]
    # Simultaneous events fire in insertion order (seeded by tag here).
    times = [t for t, _, _ in orders[0]]
    assert times == sorted(times)


# -- schedule_callback ---------------------------------------------------------


def test_schedule_callback_fires_at_delay():
    env = Environment()
    fired = []
    env.schedule_callback(250, lambda: fired.append(env.now))
    env.schedule_callback(100, lambda: fired.append(env.now))
    env.run()
    assert fired == [100, 250]


def test_schedule_callback_rejects_negative_delay():
    env = Environment()
    with pytest.raises(ValueError):
        env.schedule_callback(-1, lambda: None)


def test_schedule_callback_interleaves_with_timeouts_deterministically():
    env = Environment()
    order = []

    def proc():
        yield env.timeout(50)
        order.append("process")

    env.process(proc())
    env.schedule_callback(50, lambda: order.append("callback"))
    env.run()
    # Same timestamp: insertion order is the tie-break.  The callback was
    # enqueued at creation; the process's timeout only when the process
    # started (its Initialize event), which is later — callback wins.
    assert order == ["callback", "process"]


# -- timeout pooling safety ----------------------------------------------------


def test_held_timeout_is_never_recycled():
    env = Environment()
    held = env.timeout(5, value="mine")
    env.run()
    # The holder's reference keeps it out of the pool: value intact,
    # and a new timeout is a different object.
    assert held.value == "mine"
    fresh = env.timeout(1, value="other")
    assert fresh is not held
    assert held.value == "mine"
    env.run()


def test_pooled_timeouts_deliver_fresh_values():
    env = Environment()
    seen = []

    def looper():
        for index in range(100):
            got = yield env.timeout(3, value=index)
            seen.append(got)

    env.process(looper())
    env.run()
    assert seen == list(range(100))
    # The pool actually recycled instances (implementation detail, but the
    # whole point of the optimization — catch silent regressions).
    assert env._timeout_pool


def test_pooled_timeout_rejects_negative_delay():
    env = Environment()

    def prime():
        yield env.timeout(1)

    env.process(prime())
    env.run()                      # leaves a recycled instance in the pool
    assert env._timeout_pool
    with pytest.raises(ValueError):
        env.timeout(-5)


def test_direct_timeout_construction_still_validates():
    env = Environment()
    with pytest.raises(ValueError):
        Timeout(env, -1)


def test_interrupted_waiters_timeout_recycles_safely():
    """A timeout its creator walked away from fires unobserved later; when
    it enters the pool, reuse must deliver fresh values, never the stale
    one."""
    env = Environment()
    values = []

    def sleeper():
        env.timeout(1000, value="stale")   # nobody holds or waits on it
        values.append((yield env.timeout(50, value="fresh")))

    env.process(sleeper())
    env.run()                      # abandoned t=1000 timeout fired at 1000
    assert values == ["fresh"]
    assert env.now == 1000 and env._timeout_pool
    seen = []

    def reuse():
        for index in range(20):
            seen.append((yield env.timeout(1, value=index)))

    env.process(reuse())
    env.run()
    assert seen == list(range(20))


def test_anyof_losing_timeout_is_not_recycled():
    """The arm of an ``all_of`` that fires first stays referenced by the
    condition while the other arm is pending, so the pool must leave it
    alone — a churn of pooled timeouts meanwhile cannot overwrite it."""
    env = Environment()
    results = []
    drains = []

    def waiter():
        got = yield env.all_of([env.timeout(1, value="fast"),
                                env.timeout(1000, value="slow")])
        results.append(sorted(got.values()))

    def churn():
        for index in range(20):
            drains.append((yield env.timeout(1, value=index)))

    env.process(waiter())
    env.process(churn())
    env.run()
    assert drains == list(range(20))
    assert results == [["fast", "slow"]]
    # A user-held timeout is the same case without a condition.
    held = env.timeout(1, value="held")
    env.run()
    assert held not in env._timeout_pool
    assert env.timeout(1, value="other") is not held
    assert held.value == "held"
    env.run()


def test_cancel_race_timeout_reuse_keeps_values_isolated():
    """A timeout recycled at the timestamp it fired is handed to the next
    caller at that same timestamp: the instance must come back clean."""
    env = Environment()
    log = []

    def victim():
        log.append((yield env.timeout(500, value="doomed")))

    def aggressor():
        yield env.timeout(500)     # same timestamp the victim wakes at
        # The victim's timeout popped first and is in the pool by now.
        log.append((yield env.timeout(0, value="clean")))
        log.append(env.now)

    env.process(victim())
    env.process(aggressor())
    env.run()
    assert log == ["doomed", "clean", 500]
    fresh = env.timeout(1, value="clean")
    assert fresh.value == "clean"
    env.run()


# -- equal-timestamp callback ordering -----------------------------------------


def test_callbacks_at_equal_timestamps_fire_in_insertion_order():
    env = Environment()
    order = []
    for index in range(8):
        env.schedule_callback(10, lambda index=index: order.append(index))
    env.run()
    assert order == list(range(8))


def test_callbacks_scheduled_during_dispatch_keep_global_order():
    """A callback scheduled *at the current timestamp* from inside another
    callback still fires this sweep, after everything already queued."""
    env = Environment()
    order = []

    def first():
        order.append("first")
        env.schedule_callback(0, lambda: order.append("nested"))

    env.schedule_callback(10, first)
    env.schedule_callback(10, lambda: order.append("second"))
    env.run()
    assert order == ["first", "second", "nested"]


def test_callbacks_and_events_at_one_timestamp_keep_insertion_order():
    """A bare callback entry and an event object share one heap and one
    sequence counter, so a tie between them breaks by insertion alone."""
    env = Environment()
    order = []
    gate = env.event()
    gate.callbacks.append(lambda _event: order.append("event"))

    def waiter():
        yield env.timeout(10)
        order.append("timeout")

    env.process(waiter())          # Initialize now; its timeout comes third
    env.schedule_callback(10, lambda: order.append("callback-1"))
    env.schedule_callback(10, gate.succeed)     # 'event' is enqueued at t=10
    env.run(until=0)               # waiter's timeout(10) enqueued here
    env.schedule_callback(10, lambda: order.append("callback-2"))
    env.run()
    assert order == ["callback-1", "timeout", "callback-2", "event"]


def test_schedule_callback_returns_nothing_and_counts_one_entry():
    env = Environment()
    assert env.schedule_callback(5, lambda: None) is None
    assert env._seq == 1 and len(env._queue) == 1
    env.step()                     # the one-event form runs bare entries too
    assert env.now == 5 and not env._queue


# -- spawn: inline-started, fire-and-forget generators -------------------------


def test_spawn_runs_inline_and_a_return_without_yield_schedules_nothing():
    env = Environment()
    ran = []

    def handler():
        ran.append(env.now)
        return
        yield                      # pragma: no cover - makes it a generator

    assert env.spawn(handler()) is None
    assert ran == [0]              # started inside the call, not at a pop
    assert env._seq == 0 and not env._queue


def test_spawn_costs_two_events_fewer_than_process_and_keeps_the_order():
    """The rule the elimination rests on: a spawn in tail position leaves
    every other event where it was — same log, ``_seq`` lower by the
    ``Initialize`` and the completion event of each handler."""
    def run(start):
        env = Environment()
        log = []

        def handler(tag):
            log.append(("start", tag, env.now))
            yield env.timeout(3)
            log.append(("mid", tag, env.now))
            yield env.timeout(0)
            log.append(("end", tag, env.now))

        def ticker():
            for step in range(6):
                yield env.timeout(2)
                log.append(("tick", step, env.now))

        env.process(ticker())
        for tag, delay in enumerate((0, 2, 2, 5)):
            env.schedule_callback(
                delay, lambda tag=tag: start(env, handler(tag)))
        env.run()
        return log, env.now, env._seq

    process_log, process_now, process_seq = run(Environment.process)
    spawn_log, spawn_now, spawn_seq = run(Environment.spawn)
    assert spawn_log == process_log
    assert spawn_now == process_now
    assert spawn_seq == process_seq - 2 * 4


def test_spawn_exception_surfaces_from_run():
    """Nobody waits on a spawned generator, so its failure must not be
    swallowed: it leaves ``run()`` from the event that resumed it."""
    env = Environment()

    def fails_at_once():
        raise RuntimeError("first segment")
        yield                      # pragma: no cover

    def fails_later():
        yield env.timeout(7)
        raise RuntimeError("after a wait")

    env.schedule_callback(1, lambda: env.spawn(fails_at_once()))
    with pytest.raises(RuntimeError, match="first segment"):
        env.run()
    assert env.now == 1
    env.spawn(fails_later())
    with pytest.raises(RuntimeError, match="after a wait"):
        env.run()
    assert env.now == 8


def test_spawn_receives_failures_and_rejects_non_events():
    env = Environment()
    seen = []
    boom = env.event()

    def catcher():
        try:
            yield boom
        except ValueError as exc:
            seen.append(str(exc))
        done = env.timeout(0)
        yield env.timeout(1)
        seen.append((yield done))  # already processed: continues at once

    env.spawn(catcher())
    boom.fail(ValueError("thrown in"))
    env.run()                      # the catch defused it: run() is clean
    assert seen == ["thrown in", None]

    def bad():
        yield 42

    with pytest.raises(SimulationError, match="non-event"):
        env.spawn(bad())


def test_spawn_rejects_a_generator_function_like_process():
    """Passing the handler instead of calling it is the same mistake for
    ``spawn`` and ``process``: a TypeError naming it, before anything
    runs or is scheduled."""
    env = Environment()

    def handler():
        yield env.timeout(1)

    for start in (env.process, env.spawn):
        with pytest.raises(TypeError, match="needs a generator"):
            start(handler)
    assert env._seq == 0 and not env._queue
