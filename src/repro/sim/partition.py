"""Partitioned discrete-event engine: one event wheel per logical process.

The flat :class:`~repro.sim.core.Environment` keeps every event in one
global heap.  This module splits the model into *partitions*: each owns
its own event wheel, and a component built against a partition schedules
onto it exactly as it would onto a flat ``Environment``.  Events cross
partitions freely — a link sender's wheel schedules the delivery onto
the receiver's.

One scheduler (:meth:`PartitionedEnvironment.run`) dispatches the globally
minimal ``(time, priority, seq)`` key across all wheels.  The sequence
counter is shared, so the dispatch order is *bit-identical* to the flat
engine's single heap — same timestamps, same tie-breaks, same RNG draw
order — while each wheel stays small and runs of same-partition events
drain without rescanning the others.

Determinism contract
--------------------
Determinism rests on global-minimum dispatch alone.  ``seq`` comes from
one shared counter, so any two events — same partition or not — compare
exactly as they would in the flat engine.  The drain loop only ever
dispatches the global minimum: it picks the wheel with the smallest head
key, caches the runner-up head as a *bound*, and drains the chosen wheel
while its head stays at or below the bound.  Scheduling into a foreign
wheel below the bound (possible for URGENT process starts at the current
timestamp) raises a violation flag that forces an immediate re-pick, so
the invariant survives arbitrary callback behavior.  When the picked
wheel is the only non-empty one there is no runner-up bound, so *any*
foreign schedule raises the flag — the re-pick is cheap and the next
drain run bounds itself against the new head.
"""

from __future__ import annotations

from heapq import heappop, heappush
from sys import getrefcount
from typing import Any, Callable, Optional

from repro.sim.core import (
    _TIMEOUT_POOL_MAX,
    NORMAL,
    Environment,
    Event,
    SimulationError,
    Timeout,
)


def _schedule_callback(self, delay: int, fn: Callable[[], None]) -> None:
    """:meth:`Environment.schedule_callback` through ``_schedule``, whose
    bound check a wheel of the partitioned engine must run."""
    if delay < 0:
        raise ValueError(f"negative delay {delay}")
    self._schedule(None, NORMAL, delay, fn)


class Partition(Environment):
    """One logical process: a named sub-environment with its own wheel.

    A partition supports the full :class:`Environment` event-factory API
    (``timeout``, ``process``, ``schedule_callback``, ...), but is *driven*
    by its parent :class:`PartitionedEnvironment`: time and the scheduling
    sequence counter are the parent's, so events from different partitions
    stay globally ordered.
    """

    __slots__ = ("parent", "name")

    def __init__(self, parent: "PartitionedEnvironment", name: str):
        # Not Environment.__init__: the clock and the sequence counter
        # are the parent's.
        self._queue, self._timeout_pool = [], []
        self.parent = parent
        self.name = name

    @property
    def now(self) -> int:
        """Global simulated time (the parent's clock)."""
        return self.parent.now

    schedule_callback = _schedule_callback

    def _schedule(self, event: Optional[Event], priority: int, delay: int = 0,
                  fn: Optional[Callable[[], None]] = None) -> None:
        parent = self.parent
        seq = parent._seq
        parent._seq = seq + 1
        entry = (parent.now + delay, priority, seq, event, fn)
        heappush(self._queue, entry)
        draining = parent._draining
        if draining is not None and draining is not self:
            bound = parent._drain_bound
            # Below the runner-up bound, or no bound at all because the
            # draining wheel was the only non-empty one: this entry may
            # precede that wheel's remaining events, so force a re-pick.
            if bound is None or entry < bound:
                parent._bound_violated = True

    def run(self, until=None):
        raise SimulationError(
            "partitions are driven by their PartitionedEnvironment; "
            "call run() on the parent")

    step = run


class PartitionedEnvironment(Environment):
    """Global clock plus one event wheel per partition.

    The environment itself doubles as the *control partition* ("main"):
    driver processes, monitors, and anything not assigned to a model
    partition schedule onto its inherited wheel.  ``partition(name)``
    creates (or returns) a named :class:`Partition`; components built
    against a partition use it exactly like a flat ``Environment``.
    """

    __slots__ = ("_by_name", "_wheels", "_draining", "_drain_bound",
                 "_bound_violated")

    def __init__(self, initial_time: int = 0):
        super().__init__(initial_time)
        self._by_name: dict[str, Partition] = {}
        self._wheels: list[Environment] = [self]  # self == control wheel
        self._draining: Optional[Environment] = None
        self._drain_bound: Optional[tuple] = None
        self._bound_violated = False

    def partition(self, name: str) -> Partition:
        """Create (or return) the named partition."""
        part = self._by_name.get(name)
        if part is None:
            if name == "main":
                raise ValueError(f"{name!r} is the control partition")
            part = self._by_name[name] = Partition(self, name)
            self._wheels.append(part)
        return part

    @property
    def partitions(self) -> list[Partition]:
        return list(self._by_name.values())

    # -- scheduling ----------------------------------------------------------

    schedule_callback = _schedule_callback

    def _schedule(self, event: Optional[Event], priority: int, delay: int = 0,
                  fn: Optional[Callable[[], None]] = None) -> None:
        seq = self._seq
        self._seq = seq + 1
        entry = (self.now + delay, priority, seq, event, fn)
        heappush(self._queue, entry)
        draining = self._draining
        if draining is not None and draining is not self:
            bound = self._drain_bound
            if bound is None or entry < bound:    # see Partition._schedule
                self._bound_violated = True

    def _pick(self):
        """(wheel with the globally minimal head, runner-up head entry)."""
        best = None
        best_entry = None
        bound = None
        for wheel in self._wheels:
            queue = wheel._queue
            if not queue:
                continue
            entry = queue[0]
            if best_entry is None or entry < best_entry:
                bound = best_entry
                best_entry = entry
                best = wheel
            elif bound is None or entry < bound:
                bound = entry
        return best, bound

    def step(self) -> None:
        raise SimulationError(
            "the partitioned engine dispatches only through run()")

    def _drain(self, deadline: Optional[int],
               sentinel: Optional[Event]) -> None:
        """Dispatch events in global key order until a stop condition.

        Stops when the wheels drain, the next event lies beyond
        ``deadline``, or ``sentinel`` becomes processed.  The inner loop
        drains the picked wheel while its head stays at or below the
        runner-up bound, re-picking only when the bound is crossed or a
        foreign schedule lands below it.
        """
        while True:
            if sentinel is not None and sentinel.callbacks is None:
                return
            best, bound = self._pick()
            if best is None:
                if sentinel is not None:
                    raise SimulationError(
                        "event queue drained before the awaited event fired")
                return
            if deadline is not None and best._queue[0][0] > deadline:
                return
            queue = best._queue
            pool = best._timeout_pool
            self._draining = best
            self._drain_bound = bound
            self._bound_violated = False
            try:
                while queue:
                    entry = queue[0]
                    if bound is not None and bound < entry:
                        break
                    if deadline is not None and entry[0] > deadline:
                        break
                    when, _prio, _seq, event, fn = heappop(queue)
                    # Drop the heap tuple: a surviving reference would hold
                    # the event at refcount 3 and defeat the pool check.
                    del entry
                    self.now = when
                    if event is None:
                        fn()
                    else:
                        callbacks, event.callbacks = event.callbacks, None
                        for callback in callbacks:
                            callback(event)
                        if not event._ok and not event._defused:
                            raise event._exception  # type: ignore[misc]
                        if (type(event) is Timeout
                                and len(pool) < _TIMEOUT_POOL_MAX
                                and getrefcount(event) == 2):
                            event._value = None
                            pool.append(event)
                    if self._bound_violated:
                        break
                    if sentinel is not None and sentinel.callbacks is None:
                        break
            finally:
                self._draining = None
                self._drain_bound = None

    def run(self, until: Optional[int | Event] = None) -> Any:
        """Run in global event order (see :meth:`Environment.run`)."""
        if until is None:
            self._drain(None, None)
            return None
        if isinstance(until, Event):
            sentinel = until
            if sentinel.callbacks is None:
                return sentinel.value
            self._drain(None, sentinel)
            return sentinel.value
        deadline = int(until)
        if deadline < self.now:
            raise ValueError(
                f"until={deadline} is in the past (now={self.now})")
        self._drain(deadline, None)
        self.now = deadline
        return None
