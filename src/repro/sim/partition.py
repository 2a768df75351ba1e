"""Partitioned discrete-event engine: per-LP wheels + conservative lookahead.

The flat :class:`~repro.sim.core.Environment` keeps every event in one
global heap.  This module splits the model into *logical processes*
(partitions) in the classic PDES mold: each partition owns its own event
wheel, and cross-partition interactions flow over declared *lookahead
edges* — link propagation delays in ``repro.net`` — which bound how far
one partition's present can reach into another's future.

One scheduler (:meth:`PartitionedEnvironment.run`) dispatches the globally
minimal ``(time, priority, seq)`` key across all wheels.  The sequence
counter is shared, so the dispatch order is *bit-identical* to the flat
engine's single heap — same timestamps, same tie-breaks, same RNG draw
order — while each wheel stays small and runs of same-partition events
drain without rescanning the others.

Determinism contract
--------------------
Events carry globally ordered ``(time, priority, seq)`` keys.  ``seq``
comes from one shared counter, so any two
events — same partition or not — compare exactly as they would in the flat
engine.  The drain loop only ever dispatches the global minimum: it picks
the wheel with the smallest head key, caches the runner-up head as a
*bound*, and drains the chosen wheel while its head stays at or below the
bound.  Scheduling into a foreign wheel below the bound (possible for
URGENT process starts at the current timestamp) raises a violation flag
that forces an immediate re-pick, so the invariant survives arbitrary
callback behavior.  When the picked wheel is the only non-empty one there
is no runner-up bound, so *any* foreign schedule raises the flag — the
re-pick is cheap and the next drain run bounds itself against the new
head.
"""

from __future__ import annotations

from functools import partial
from heapq import heappop, heappush
from sys import getrefcount
from typing import Any, Callable, Optional

from repro.sim.core import (
    _TIMEOUT_POOL_MAX,
    Environment,
    Event,
    SimulationError,
    Timeout,
)


class Partition(Environment):
    """One logical process: a named sub-environment with its own wheel.

    A partition supports the full :class:`Environment` event-factory API
    (``timeout``, ``process``, ``schedule_callback``, ...), but is *driven*
    by its parent :class:`PartitionedEnvironment`: time and the scheduling
    sequence counter are the parent's, so events from different partitions
    stay globally ordered.
    """

    __slots__ = ("parent", "name", "index", "events_dispatched",
                 "events_scheduled", "cross_events_in")

    def __init__(self, parent: "PartitionedEnvironment", name: str,
                 index: int):
        Environment.__init__(self)
        self.parent = parent
        self.name = name
        self.index = index
        self.events_dispatched = 0      # dispatched from this wheel
        self.events_scheduled = 0       # pushed onto this wheel
        self.cross_events_in = 0        # pushed while another LP was active

    @property
    def now(self) -> int:
        """Global simulated time (the parent's clock)."""
        return self.parent._now

    def _schedule(self, event: Optional[Event], priority: int, delay: int = 0,
                  fn: Optional[Callable[[], None]] = None) -> None:
        parent = self.parent
        seq = parent._seq
        parent._seq = seq + 1
        entry = (parent._now + delay, priority, seq, event, fn)
        heappush(self._queue, entry)
        self.events_scheduled += 1
        draining = parent._draining
        if draining is not None and draining is not self:
            self.cross_events_in += 1
            bound = parent._drain_bound
            if bound is None:
                # The draining wheel was the only non-empty one, so the
                # drain loop has no runner-up to compare against: any
                # foreign schedule (this one) might precede its remaining
                # events.  Force a re-pick; the next drain run sees this
                # wheel's head as its bound.
                parent._bound_violated = True
            elif entry < bound:
                parent._bound_violated = True

    def pending(self) -> int:
        """Events currently queued on this partition's wheel."""
        return len(self._queue)

    def quiesced(self) -> bool:
        """True when the wheel holds no scheduled events.

        Fault injection uses this after a crash drains to assert a dead
        partition is not still ticking.
        """
        return not self._queue

    def step(self) -> None:
        raise SimulationError(
            "partitions are driven by their PartitionedEnvironment; "
            "call step()/run() on the parent")

    def run(self, until=None):
        raise SimulationError(
            "partitions are driven by their PartitionedEnvironment; "
            "call run() on the parent")

    def stats(self) -> dict:
        return {
            "events_dispatched": self.events_dispatched,
            "events_scheduled": self.events_scheduled,
            "cross_events_in": self.cross_events_in,
            "pending": len(self._queue),
        }

    def __repr__(self) -> str:
        return (f"<Partition {self.name!r} pending={len(self._queue)} "
                f"dispatched={self.events_dispatched}>")


class Channel:
    """A declared cross-partition edge.

    :meth:`send` schedules the registered handler directly on the
    destination wheel — one callback event, exactly what a flat model
    would have scheduled.

    ``lookahead_ns`` is the conservative promise: every send is delivered
    at least that far in the receiver's future.
    """

    __slots__ = ("parent", "cid", "src", "dst", "handler", "lookahead_ns",
                 "messages")

    def __init__(self, parent: "PartitionedEnvironment", cid: int,
                 src: Partition, dst: Partition,
                 handler: Callable[[Any], None], lookahead_ns: int):
        self.parent = parent
        self.cid = cid
        self.src = src
        self.dst = dst
        self.handler = handler
        self.lookahead_ns = lookahead_ns
        self.messages = 0

    def send(self, payload: Any, delay: Optional[int] = None) -> None:
        """Deliver ``payload`` to the destination handler after ``delay``.

        ``delay`` defaults to the channel's lookahead and must never be
        smaller — that would break the declared conservative bound.
        """
        if delay is None:
            delay = self.lookahead_ns
        elif delay < self.lookahead_ns:
            raise ValueError(
                f"channel {self.src.name}->{self.dst.name}: delay {delay} "
                f"below declared lookahead {self.lookahead_ns}")
        self.messages += 1
        self.dst.schedule_callback(delay, partial(self.handler, payload))


class PartitionedEnvironment(Environment):
    """Global clock plus one event wheel per partition.

    The environment itself doubles as the *control partition* ("main"):
    driver processes, monitors, and anything not assigned to a model
    partition schedule onto its inherited wheel.  ``partition(name)``
    creates (or returns) a named :class:`Partition`; components built
    against a partition use it exactly like a flat ``Environment``.
    """

    __slots__ = ("_partitions", "_by_name", "_edges", "_wheels", "_channels",
                 "_draining", "_drain_bound", "_bound_violated",
                 "events_dispatched", "drain_runs", "name", "index")

    def __init__(self, initial_time: int = 0):
        super().__init__(initial_time)
        self._partitions: list[Partition] = []
        self._by_name: dict[str, Partition] = {}
        self._edges: dict[tuple[str, str], int] = {}
        self._channels: list[Channel] = []
        self._wheels: list[Environment] = [self]  # self == control wheel
        self._draining: Optional[Environment] = None
        self._drain_bound: Optional[tuple] = None
        self._bound_violated = False
        self.events_dispatched = 0
        self.drain_runs = 0
        self.name = "main"
        self.index = 0

    # -- partition registry --------------------------------------------------

    def partition(self, name: str) -> Partition:
        """Create (or return) the named partition."""
        part = self._by_name.get(name)
        if part is None:
            if name == self.name:
                raise ValueError(f"{name!r} is the control partition")
            part = Partition(self, name, len(self._partitions) + 1)
            self._partitions.append(part)
            self._by_name[name] = part
            self._wheels.append(part)
        return part

    @property
    def partitions(self) -> list[Partition]:
        return list(self._partitions)

    def declare_lookahead(self, src: Environment, dst: Environment,
                          lookahead_ns: int) -> None:
        """Declare a conservative lookahead edge ``src -> dst``.

        Any event one partition schedules into another must be at least
        this far in the future.  Multiple declarations keep the minimum
        (the conservative choice).
        """
        if lookahead_ns <= 0:
            raise ValueError(
                f"lookahead must be positive, got {lookahead_ns}")
        key = (getattr(src, "name", "main"), getattr(dst, "name", "main"))
        current = self._edges.get(key)
        if current is None or lookahead_ns < current:
            self._edges[key] = lookahead_ns

    def lookahead_edges(self) -> dict[tuple[str, str], int]:
        return dict(self._edges)

    def min_lookahead(self) -> Optional[int]:
        """The tightest declared edge."""
        return min(self._edges.values()) if self._edges else None

    def open_channel(self, src: Partition, dst: Partition,
                     handler: Callable[[Any], None],
                     lookahead_ns: int) -> Channel:
        """Register a cross-partition message channel (and its edge)."""
        if not isinstance(src, Partition) or not isinstance(dst, Partition):
            raise TypeError("channels connect model partitions, not the "
                            "control wheel")
        if src.parent is not self or dst.parent is not self:
            raise ValueError("channel endpoints belong to a different "
                             "environment")
        self.declare_lookahead(src, dst, lookahead_ns)
        channel = Channel(self, len(self._channels), src, dst, handler,
                          lookahead_ns)
        self._channels.append(channel)
        return channel

    # -- scheduling ----------------------------------------------------------

    def _schedule(self, event: Optional[Event], priority: int, delay: int = 0,
                  fn: Optional[Callable[[], None]] = None) -> None:
        seq = self._seq
        self._seq = seq + 1
        entry = (self._now + delay, priority, seq, event, fn)
        heappush(self._queue, entry)
        draining = self._draining
        if draining is not None and draining is not self:
            bound = self._drain_bound
            if bound is None:
                # No runner-up bound (see Partition._schedule): re-pick.
                self._bound_violated = True
            elif entry < bound:
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
        """Dispatch exactly one event: the global ``(t, prio, seq)`` min."""
        best, _bound = self._pick()
        if best is None:
            raise SimulationError("no scheduled events")
        self._dispatch_one(best)

    def _dispatch_one(self, wheel: Environment) -> None:
        when, _prio, _seq, event, fn = heappop(wheel._queue)
        self._now = when
        wheel.events_dispatched += 1
        if event is None:
            fn()
            return
        callbacks, event.callbacks = event.callbacks, None
        for callback in callbacks:
            callback(event)
        if not event._ok and not event._defused:
            raise event._exception  # type: ignore[misc]
        pool = wheel._timeout_pool
        if (type(event) is Timeout
                and len(pool) < _TIMEOUT_POOL_MAX
                and getrefcount(event) == 2):
            event._value = None
            pool.append(event)

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
            self.drain_runs += 1
            queue = best._queue
            pool = best._timeout_pool
            self._draining = best
            self._drain_bound = bound
            self._bound_violated = False
            dispatched = 0
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
                    self._now = when
                    dispatched += 1
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
                best.events_dispatched += dispatched
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
        if deadline < self._now:
            raise ValueError(
                f"until={deadline} is in the past (now={self._now})")
        self._drain(deadline, None)
        self._now = deadline
        return None

    # -- reporting -----------------------------------------------------------

    def pending(self) -> int:
        return len(self._queue)

    def partition_stats(self) -> dict:
        """Per-partition event counters plus engine-level totals."""
        return {
            "partitions": {
                part.name: part.stats() for part in self._partitions
            },
            "control": {
                "events_dispatched": self.events_dispatched,
                "pending": len(self._queue),
            },
            "drain_runs": self.drain_runs,
            "lookahead_edges": {
                f"{src}->{dst}": ns
                for (src, dst), ns in sorted(self._edges.items())
            },
            "channel_messages": sum(c.messages for c in self._channels),
        }
