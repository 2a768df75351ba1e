"""The partitioned engine's determinism contract and partition mechanics.

The load-bearing property: a model split across partitions, run by the
single-process partitioned scheduler, dispatches *exactly* the event
sequence the flat engine would — same timestamps, same tie-breaks, same
sequence-counter trajectory.  Everything downstream (golden fingerprints,
chaos determinism, RNG draw order) rests on it.
"""

from functools import partial

import pytest

from repro.sim import Environment, PartitionedEnvironment, SimulationError


# -- flat vs partitioned equivalence -------------------------------------------


def _mixed_workload(env, envs, order):
    """A workload spread across ``envs`` (all the same env when flat).

    Mixes timeouts, same-timestamp ties, processes started from another
    partition (their ``Initialize`` is URGENT), and callbacks so every
    scheduling path crosses partition lines.
    """

    def worker(sub, tag):
        for step in range(15):
            yield sub.timeout((tag * 7 + step) % 11)
            order.append(("tick", tag, step, env.now))

    def woken(sub, tag):
        order.append(("woken", tag, env.now))
        yield sub.timeout(tag)
        order.append(("rewoken", tag, env.now))

    for tag, sub in enumerate(envs):
        sub.process(worker(sub, tag))
        sub.schedule_callback(13 + tag,
                              lambda tag=tag: order.append(("cb", tag)))

    def starter(sub):
        yield sub.timeout(29)
        for tag, target in enumerate(envs):
            target.process(woken(target, tag))

    envs[0].process(starter(envs[0]))


def test_partitioned_run_is_bit_identical_to_flat():
    flat_env = Environment()
    flat_order = []
    _mixed_workload(flat_env, [flat_env] * 4, flat_order)
    flat_env.run()

    part_env = PartitionedEnvironment()
    parts = [part_env.partition(f"p{index}") for index in range(4)]
    part_order = []
    _mixed_workload(part_env, parts, part_order)
    part_env.run()

    assert part_order == flat_order
    assert part_env._seq == flat_env._seq
    assert part_env.now == flat_env.now


def test_partitioned_deadline_run_matches_flat():
    flat_env = Environment()
    flat_order = []
    _mixed_workload(flat_env, [flat_env] * 3, flat_order)
    flat_env.run(until=25)

    part_env = PartitionedEnvironment()
    parts = [part_env.partition(f"p{index}") for index in range(3)]
    part_order = []
    _mixed_workload(part_env, parts, part_order)
    part_env.run(until=25)

    assert part_order == flat_order
    assert part_env.now == flat_env.now == 25


def test_partitioned_run_until_event_matches_flat():
    def build(env, subs):
        order = []

        def chatty(sub, tag):
            for step in range(10):
                yield sub.timeout(tag + 2)
                order.append((tag, step, env.now))

        procs = [sub.process(chatty(sub, tag))
                 for tag, sub in enumerate(subs)]
        return order, procs[1]

    flat_env = Environment()
    flat_order, flat_sentinel = build(flat_env, [flat_env] * 3)
    flat_env.run(until=flat_sentinel)

    part_env = PartitionedEnvironment()
    parts = [part_env.partition(f"p{index}") for index in range(3)]
    part_order, part_sentinel = build(part_env, parts)
    part_env.run(until=part_sentinel)

    assert part_order == flat_order
    assert part_env.now == flat_env.now


def test_urgent_cross_partition_schedule_respects_global_order():
    """An URGENT event landing in a foreign wheel at the current timestamp
    must fire before any NORMAL event at that timestamp — exactly the flat
    tie-break — even if the scheduler was mid-drain elsewhere."""

    def build(env, sub_a, sub_b):
        order = []

        def waiter():
            order.append(("started", env.now))
            yield sub_b.timeout(10)

        def striker():
            order.append(("strike", env.now))
            sub_b.schedule_callback(
                0, lambda: order.append(("late_cb_b", env.now)))
            sub_b.process(waiter())    # URGENT, scheduled at t=50 into B

        # B's pending entry is the runner-up bound while A drains at t=50.
        sub_b.schedule_callback(10_000, lambda: order.append(("b", env.now)))
        sub_a.schedule_callback(50, striker)
        sub_a.schedule_callback(50, lambda: order.append(("cb_a", env.now)))
        return order

    flat_env = Environment()
    flat_order = build(flat_env, flat_env, flat_env)
    flat_env.run()

    part_env = PartitionedEnvironment()
    a, b = part_env.partition("a"), part_env.partition("b")
    part_order = build(part_env, a, b)
    part_env.run()

    assert part_order == flat_order == [
        ("strike", 50), ("started", 50), ("cb_a", 50), ("late_cb_b", 50),
        ("b", 10_000)]


def test_urgent_interrupt_into_sole_nonempty_wheel_matches_flat():
    """Cross-partition schedules must break the drain even with no
    runner-up bound: B's wheel is empty, so the draining wheel is the only
    non-empty one and ``_drain_bound`` is None when the URGENT start of a
    process on B lands."""

    def build(env, sub_a, sub_b):
        order = []

        def sleeper():
            order.append(("started", env.now))
            yield sub_b.event()        # untriggered: B's wheel stays empty

        def striker():
            order.append(("strike", env.now))
            sub_b.process(sleeper())   # URGENT at t=5, into an empty wheel

        sub_a.schedule_callback(5, striker)
        sub_a.schedule_callback(5, lambda: order.append(("cb_a", env.now)))
        return order

    flat_env = Environment()
    flat_order = build(flat_env, flat_env, flat_env)
    flat_env.run(until=100)

    part_env = PartitionedEnvironment()
    a, b = part_env.partition("a"), part_env.partition("b")
    part_order = build(part_env, a, b)
    part_env.run(until=100)

    assert part_order == flat_order
    assert part_order.index(("started", 5)) < part_order.index(
        ("cb_a", 5))


def test_future_cross_schedule_during_unbounded_drain_matches_flat():
    """While the sole non-empty wheel drains (no runner-up bound), a
    NORMAL cross-partition schedule at a *future* time must still fire
    before later events on the draining wheel."""

    def build(env, sub_a, sub_b):
        order = []

        def seed():
            order.append(("seed", env.now))
            sub_b.schedule_callback(
                50, lambda: order.append(("b", env.now)))

        sub_a.schedule_callback(0, seed)
        sub_a.schedule_callback(100, lambda: order.append(("a", env.now)))
        return order

    flat_env = Environment()
    flat_order = build(flat_env, flat_env, flat_env)
    flat_env.run()

    part_env = PartitionedEnvironment()
    a, b = part_env.partition("a"), part_env.partition("b")
    part_order = build(part_env, a, b)
    part_env.run()

    assert part_order == flat_order == [("seed", 0), ("b", 50), ("a", 100)]


def test_timeout_pool_recycles_on_partitioned_drain_path():
    """The drain loop must drop its heap-tuple reference before the pool
    refcount check, or no Timeout is ever recycled under partitioning."""

    def ticker(sub):
        for _ in range(50):
            yield sub.timeout(3)

    flat_env = Environment()
    flat_env.process(ticker(flat_env))
    flat_env.run()

    part_env = PartitionedEnvironment()
    part = part_env.partition("p0")
    part.process(ticker(part))
    part_env.run()

    assert len(part._timeout_pool) == len(flat_env._timeout_pool) > 0


# -- partition registry ---------------------------------------------------------


def test_partition_registry_is_idempotent():
    env = PartitionedEnvironment()
    first = env.partition("mn0")
    assert env.partition("mn0") is first
    assert [p.name for p in env.partitions] == ["mn0"]
    with pytest.raises(ValueError):
        env.partition("main")       # the control partition's name


def test_partitions_cannot_be_driven_directly():
    env = PartitionedEnvironment()
    part = env.partition("p0")
    part.timeout(5)
    with pytest.raises(SimulationError):
        part.step()
    with pytest.raises(SimulationError):
        part.run()
    # Nor single-stepped through the parent: a flat ``step`` would pop
    # the control wheel's head with no global pick.
    with pytest.raises(SimulationError, match="run"):
        env.step()
    env.run()
    assert env.now == 5


def test_shared_clock_and_quiesced():
    env = PartitionedEnvironment()
    a, b = env.partition("a"), env.partition("b")
    a.timeout(5)
    assert a._queue and not b._queue
    env.run()
    assert not a._queue
    assert a.now == b.now == env.now == 5


# -- run(until=...) edge behavior mirrors the flat engine ----------------------


def test_partitioned_run_until_processed_event_is_immediate():
    env = PartitionedEnvironment()
    part = env.partition("p0")
    target = part.timeout(5, value="done")
    part.schedule_callback(1000, lambda: None)
    assert env.run(until=target) == "done"
    assert env.run(until=target) == "done"   # fast path, no drain
    assert len(part._queue) == 1             # the t=1000 callback waits
    assert env.now == 5


def test_partitioned_run_until_drained_queue_raises():
    env = PartitionedEnvironment()
    part = env.partition("p0")
    never = part.event()
    part.timeout(3)
    with pytest.raises(SimulationError, match="drained"):
        env.run(until=never)


# -- spawn and bare callback entries on partitions -------------------------------


def _spawning_workload(env, envs, order):
    """Handlers spawned from cross-partition callbacks, as a board's
    ``receive`` does from a link delivery."""

    def handler(sub, tag):
        order.append(("start", tag, env.now))
        yield sub.timeout(4 + tag)
        order.append(("end", tag, env.now))
        nxt = envs[(tag + 1) % len(envs)]
        if env.now < 60:
            nxt.schedule_callback(
                3, lambda: nxt.spawn(handler(nxt, (tag + 1) % len(envs))))

    for tag, sub in enumerate(envs):
        sub.schedule_callback(
            tag, lambda sub=sub, tag=tag: sub.spawn(handler(sub, tag)))
        sub.schedule_callback(5, lambda tag=tag: order.append(("cb", tag)))


def test_spawn_and_callbacks_are_bit_identical_to_flat():
    flat_env = Environment()
    flat_order = []
    _spawning_workload(flat_env, [flat_env] * 3, flat_order)
    flat_env.run()

    part_env = PartitionedEnvironment()
    parts = [part_env.partition(f"p{index}") for index in range(3)]
    part_order = []
    _spawning_workload(part_env, parts, part_order)
    part_env.run()

    assert part_order == flat_order and len(flat_order) > 30
    assert part_env._seq == flat_env._seq
    assert part_env.now == flat_env.now
    # One callback per "start"/"cb" and one timeout per "end": every
    # entry scheduled (all dispatched, the wheels are empty) is one of
    # those, and no Initialize or completion event exists.
    assert not any(part._queue for part in (part_env, *parts))
    assert part_env._seq == len(flat_order)


def test_partitioned_spawn_exception_surfaces_and_empty_spawn_is_free():
    env = PartitionedEnvironment()
    part = env.partition("p0")

    def quiet():
        return
        yield                      # pragma: no cover

    part.spawn(quiet())
    assert env._seq == 0 and not part._queue

    def fails():
        yield part.timeout(7)
        raise RuntimeError("handler bug")

    part.schedule_callback(2, lambda: part.spawn(fails()))
    with pytest.raises(RuntimeError, match="handler bug"):
        env.run()
    assert env.now == 9
    with pytest.raises(ValueError):
        part.schedule_callback(-1, lambda: None)


# -- the clock and bare entries on every wheel ----------------------------------


def _wheels(kind):
    """``(engine, wheel)``: the environment that runs, and the one its
    callers schedule onto."""
    if kind == "flat":
        env = Environment()
        return env, env
    env = PartitionedEnvironment()
    return env, env if kind == "partitioned" else env.partition("p0")


@pytest.mark.parametrize("kind", ["flat", "partitioned", "partition"])
def test_schedule_callback_rejects_negative_delays_and_keeps_insertion_order(
        kind):
    env, wheel = _wheels(kind)
    with pytest.raises(ValueError, match="negative delay"):
        wheel.schedule_callback(-1, lambda: None)
    fired = []
    for tag in range(6):
        wheel.schedule_callback(7 if tag % 2 else 3,
                                lambda tag=tag: fired.append((tag, env.now)))
    wheel.schedule_callback(0, lambda: wheel.schedule_callback(
        3, lambda: fired.append(("late", env.now))))
    env.run()
    assert fired == [(0, 3), (2, 3), (4, 3), ("late", 3), (1, 7), (3, 7),
                     (5, 7)]
    assert env._seq == 8 and not wheel._queue


@pytest.mark.parametrize("target", ["partition", "control wheel"])
def test_schedule_callback_onto_another_wheel_forces_a_repick(target):
    """A bare entry scheduled onto another wheel, earlier than the
    draining wheel's next one, runs first: the partitioned engine's
    ``schedule_callback`` keeps ``_schedule``'s bound check."""
    env = PartitionedEnvironment()
    source = env.partition("source")
    sink = env.partition("sink") if target == "partition" else env
    fired = []

    def first():
        fired.append(("first", env.now))
        sink.schedule_callback(1, lambda: fired.append(("sink", env.now)))

    source.schedule_callback(5, first)
    source.schedule_callback(10, lambda: fired.append(("last", env.now)))
    env.run()
    assert fired == [("first", 5), ("sink", 6), ("last", 10)]


@pytest.mark.parametrize("partitioned", [False, True])
def test_now_is_the_popped_entrys_time_inside_every_callback(partitioned):
    """``Environment.now`` is a slot the drain loop writes on each pop; a
    partition's ``now`` reads its parent's clock."""
    env = PartitionedEnvironment() if partitioned else Environment()
    wheels = ([env.partition("a"), env.partition("b"), env] if partitioned
              else [env] * 3)
    seen = []

    def check(due, wheel, *_event):
        seen.append((due, env.now, wheel.now, [w.now for w in wheels]))
        if due < 40:
            nxt, delay = wheels[due % 3], 1 + due % 5
            nxt.schedule_callback(delay, partial(check, env.now + delay, nxt))

    for index, delay in enumerate([5, 0, 17, 5, 3, 11]):
        wheel = wheels[index % 3]
        wheel.schedule_callback(delay, partial(check, delay, wheel))
        wheel.timeout(delay + 1).callbacks.append(
            partial(check, delay + 1, wheel))
    env.run(until=30)
    assert env.now == 30 and all(wheel.now == 30 for wheel in wheels)
    env.run()
    assert len(seen) > 20
    for due, now, wheel_now, every in seen:
        assert due == now == wheel_now and every == [now] * 3
    if not partitioned:
        env.schedule_callback(4, partial(check, env.now + 4, env))
        env.step()
        assert seen[-1][:2] == (env.now, env.now)
