"""Edge cases of the simulation engine's trickiest paths.

Covers the scenarios the hot-path optimizations (slots, timeout pooling,
scheduled callbacks) must not disturb: interrupt-while-waiting, deadlines
equal to the current time, the already-processed-event fast loop in
``Process._resume``, and bit-for-bit determinism of event ordering.
"""

import pytest

from repro.sim import Environment, Interrupt, Resource, SimulationError
from repro.sim.core import Timeout


# -- interrupt while waiting ---------------------------------------------------


def test_interrupt_while_waiting_on_timeout():
    env = Environment()
    log = []

    def sleeper():
        try:
            yield env.timeout(1000)
            log.append("slept")
        except Interrupt as interrupt:
            log.append(("interrupted", interrupt.cause, env.now))

    def interrupter(target):
        yield env.timeout(100)
        target.interrupt(cause="wake up")

    target = env.process(sleeper())
    env.process(interrupter(target))
    env.run()
    assert log == [("interrupted", "wake up", 100)]


def test_interrupt_detaches_from_waited_event():
    """After an interrupt, the old target firing must not resume the process
    a second time."""
    env = Environment()
    log = []

    def sleeper():
        try:
            yield env.timeout(1000)
        except Interrupt:
            log.append(("interrupted", env.now))
            yield env.timeout(5000)
            log.append(("resumed", env.now))

    def interrupter(target):
        yield env.timeout(100)
        target.interrupt()

    target = env.process(sleeper())
    env.process(interrupter(target))
    env.run()
    # One interrupt, one clean resume at 100 + 5000 (not at the old 1000).
    assert log == [("interrupted", 100), ("resumed", 5100)]


def test_interrupting_dead_process_raises():
    env = Environment()

    def quick():
        yield env.timeout(1)

    process = env.process(quick())
    env.run()
    with pytest.raises(SimulationError):
        process.interrupt()


def test_process_cannot_interrupt_itself():
    env = Environment()
    failures = []

    def selfish(holder):
        try:
            holder[0].interrupt()
        except SimulationError:
            failures.append(True)
        yield env.timeout(1)

    holder = []
    holder.append(env.process(selfish(holder)))
    env.run()
    assert failures == [True]


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


def test_run_until_cancelled_request_raises_immediately():
    """A cancelled (withdrawn, never-fired) request can never trigger;
    waiting on it must raise instead of draining the queue forever."""
    env = Environment()
    resource = Resource(env, capacity=1)
    holder = resource.request()    # takes the only slot
    env.run()
    assert holder.processed
    loser = resource.request()     # queued behind the holder
    loser.cancel()
    env.schedule_callback(10_000, lambda: None)
    with pytest.raises(SimulationError, match="cancelled"):
        env.run(until=loser)
    assert env.now == 0            # nothing was dispatched hunting for it


def test_cancel_keeps_callbacks_for_live_waiter():
    """Cancelling a request a process is yielding on must not strand the
    waiter with a cleared callback list."""
    env = Environment()
    resource = Resource(env, capacity=1)
    outcome = []

    def waiter(request):
        got = yield request
        outcome.append(got)

    holder = resource.request()
    env.run()
    queued = resource.request()
    env.process(waiter(queued))
    env.run()                      # waiter is now parked on the request
    queued.cancel()
    assert queued.callbacks is not None   # waiter still attached
    resource.release(holder)       # frees the slot; cancelled request skipped


def _cancelled_request(env):
    """A request in the terminal cancelled state (withdrawn, never fired)."""
    resource = Resource(env, capacity=1)
    resource.request()             # takes the only slot
    env.run()
    loser = resource.request()
    loser.cancel()
    assert loser.callbacks is None and not loser.triggered
    return loser


def test_process_yielding_cancelled_request_gets_simulation_error():
    """Yielding a cancelled request must raise a clear SimulationError
    into the process (catchable like any other failure), not a TypeError
    from throwing None."""
    env = Environment()
    loser = _cancelled_request(env)
    caught = []

    def waiter():
        try:
            yield loser
        except SimulationError as exc:
            caught.append(str(exc))

    env.process(waiter())
    env.run()
    assert len(caught) == 1
    assert "cancelled" in caught[0]


def test_condition_over_cancelled_event_fails_with_simulation_error():
    """A condition built over a cancelled event can never complete; it
    must fail with a SimulationError, not crash in fail(None)."""
    env = Environment()
    loser = _cancelled_request(env)
    condition = env.all_of([loser, env.timeout(5)])
    with pytest.raises(SimulationError, match="cancelled"):
        env.run(until=condition)


# -- already-processed-event chaining in Process._resume -----------------------


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
    """The timeout a waiter abandoned on interrupt fires unobserved later;
    if it enters the pool, reuse must deliver fresh values, never the
    stale one."""
    env = Environment()
    values = []

    def sleeper():
        try:
            yield env.timeout(1000, value="stale")
        except Interrupt:
            values.append((yield env.timeout(50, value="fresh")))

    def interrupter(target):
        yield env.timeout(100)
        target.interrupt()

    target = env.process(sleeper())
    env.process(interrupter(target))
    env.run()                      # abandoned t=1000 timeout fired at 1000
    assert values == ["fresh"]
    seen = []

    def reuse():
        for index in range(20):
            seen.append((yield env.timeout(1, value=index)))

    env.process(reuse())
    env.run()
    assert seen == list(range(20))


def test_anyof_losing_timeout_is_not_recycled():
    """The losing arm of an any_of stays referenced by the condition, so
    the pool must leave it alone — its value survives the race."""
    env = Environment()
    fast = env.timeout(1, value="fast")
    slow = env.timeout(1000, value="slow")
    winners = []

    def racer():
        winners.append((yield env.any_of([fast, slow])))

    env.process(racer())
    env.run()                      # both fire; slow loses the race
    assert winners[0] == {fast: "fast"} or fast in winners[0]
    assert slow.value == "slow"    # loser untouched by pooling
    # Churn the pool; the held loser must keep its identity and value.
    drains = []

    def churn():
        for index in range(20):
            drains.append((yield env.timeout(1, value=index)))

    env.process(churn())
    env.run()
    assert drains == list(range(20))
    assert slow.value == "slow"
    assert slow not in env._timeout_pool


def test_cancel_race_timeout_reuse_keeps_values_isolated():
    """Interrupt + immediate re-wait at the same timestamp: the recycled
    instance handed to the next caller must be clean."""
    env = Environment()
    log = []

    def victim():
        try:
            yield env.timeout(500, value="doomed")
        except Interrupt:
            log.append(("interrupted", env.now))

    def aggressor(target):
        yield env.timeout(500)     # same timestamp the victim wakes at
        try:
            target.interrupt()
        except SimulationError:
            pass                   # victim won the tie and terminated

    target = env.process(victim())
    env.process(aggressor(target))
    env.run()
    # Whichever way the tie broke, the engine must not double-deliver.
    assert len(log) <= 1
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
