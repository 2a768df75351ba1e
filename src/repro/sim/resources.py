"""Shared-resource primitives: Resource and Store.

These follow simpy semantics closely: ``request``/``put``/``get`` return
events that a process yields on; FIFO ordering among waiters is guaranteed,
which the engine's deterministic scheduler turns into reproducible runs.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Optional

from repro.sim.core import Environment, Event


class Request(Event):
    """Pending claim on a :class:`Resource` slot; usable as a context token."""

    __slots__ = ("resource",)

    def __init__(self, resource: "Resource"):
        super().__init__(resource.env)
        self.resource = resource
        resource._queue.append(self)
        resource._trigger()


class Resource:
    """A counted resource with ``capacity`` concurrent slots."""

    __slots__ = ("env", "capacity", "_users", "_queue")

    def __init__(self, env: Environment, capacity: int = 1):
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.env = env
        self.capacity = capacity
        self._users: list[Request] = []
        self._queue: Deque[Request] = deque()

    @property
    def count(self) -> int:
        """Number of slots currently held."""
        return len(self._users)

    def request(self) -> Request:
        return Request(self)

    def release(self, request: Request) -> None:
        try:
            self._users.remove(request)
        except ValueError:
            raise ValueError("releasing a request that does not hold the resource")
        self._trigger()

    def _trigger(self) -> None:
        while self._queue and len(self._users) < self.capacity:
            request = self._queue.popleft()
            self._users.append(request)
            request.succeed()


class StorePut(Event):
    __slots__ = ("item",)

    def __init__(self, store: "Store", item: Any):
        super().__init__(store.env)
        self.item = item
        store._put_queue.append(self)
        store._trigger()


class StoreGet(Event):
    __slots__ = ()

    def __init__(self, store: "Store"):
        super().__init__(store.env)
        store._get_queue.append(self)
        store._trigger()


class Store:
    """FIFO buffer of items with optional capacity bound."""

    __slots__ = ("env", "capacity", "items", "_put_queue", "_get_queue")

    def __init__(self, env: Environment, capacity: Optional[int] = None):
        if capacity is not None and capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.env = env
        self.capacity = capacity if capacity is not None else float("inf")
        self.items: Deque[Any] = deque()
        self._put_queue: Deque[StorePut] = deque()
        self._get_queue: Deque[StoreGet] = deque()

    def __len__(self) -> int:
        return len(self.items)

    def put(self, item: Any) -> StorePut:
        return StorePut(self, item)

    def get(self) -> StoreGet:
        return StoreGet(self)

    def _trigger(self) -> None:
        progressed = True
        while progressed:
            progressed = False
            if self._put_queue and len(self.items) < self.capacity:
                put = self._put_queue.popleft()
                self.items.append(put.item)
                put.succeed()
                progressed = True
            if self._get_queue and self.items:
                get = self._get_queue.popleft()
                get.succeed(self.items.popleft())
                progressed = True
