"""Unit tests for Resource and Store."""

import pytest

from repro.sim import Environment, Resource, Store


def test_resource_serializes_exclusive_access():
    env = Environment()
    resource = Resource(env, capacity=1)
    log = []

    def user(tag, hold):
        request = resource.request()
        yield request
        log.append((tag, "in", env.now))
        yield env.timeout(hold)
        resource.release(request)
        log.append((tag, "out", env.now))

    env.process(user("a", 10))
    env.process(user("b", 10))
    env.run()
    assert log == [
        ("a", "in", 0), ("a", "out", 10),
        ("b", "in", 10), ("b", "out", 20),
    ]


def test_resource_capacity_allows_parallelism():
    env = Environment()
    resource = Resource(env, capacity=2)
    entered = []

    def user(tag):
        request = resource.request()
        yield request
        entered.append((tag, env.now))
        yield env.timeout(10)
        resource.release(request)

    for tag in ("a", "b", "c"):
        env.process(user(tag))
    env.run()
    assert entered == [("a", 0), ("b", 0), ("c", 10)]


def test_resource_release_unowned_rejected():
    env = Environment()
    resource = Resource(env, capacity=1)

    def proc():
        request = resource.request()
        yield request
        resource.release(request)
        with pytest.raises(ValueError):
            resource.release(request)

    env.process(proc())
    env.run()


def test_resource_zero_capacity_rejected():
    env = Environment()
    with pytest.raises(ValueError):
        Resource(env, capacity=0)


def test_store_fifo_order():
    env = Environment()
    store = Store(env)
    got = []

    def producer():
        for item in (1, 2, 3):
            yield store.put(item)

    def consumer():
        for _ in range(3):
            item = yield store.get()
            got.append(item)

    env.process(producer())
    env.process(consumer())
    env.run()
    assert got == [1, 2, 3]


def test_store_get_blocks_until_put():
    env = Environment()
    store = Store(env)
    got = []

    def consumer():
        item = yield store.get()
        got.append((item, env.now))

    def producer():
        yield env.timeout(50)
        yield store.put("late")

    env.process(consumer())
    env.process(producer())
    env.run()
    assert got == [("late", 50)]


def test_store_capacity_blocks_put():
    env = Environment()
    store = Store(env, capacity=1)
    times = []

    def producer():
        yield store.put("a")
        times.append(("a", env.now))
        yield store.put("b")
        times.append(("b", env.now))

    def consumer():
        yield env.timeout(30)
        yield store.get()

    env.process(producer())
    env.process(consumer())
    env.run()
    assert times == [("a", 0), ("b", 30)]
