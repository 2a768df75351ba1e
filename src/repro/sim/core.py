"""Event loop, events, and processes for the simulation engine.

Time is an integer number of nanoseconds.  The scheduler is a binary heap
keyed on ``(time, priority, sequence)`` so that simultaneous events fire in
insertion order, which keeps every run bit-for-bit reproducible.  The clock,
``Environment.now``, is a plain slot that the drain loop writes on each pop.

The engine is the hot path of every experiment, so the event classes are
slotted, fully-processed :class:`Timeout` instances are recycled through a
small pool, pure-delay work is a bare heap entry
(:meth:`Environment.schedule_callback`, which pushes its own tuple) rather
than an event object, and a handler nobody waits on starts inline
(:meth:`Environment.spawn`) instead of paying for a :class:`Process`, its
``Initialize`` and its completion event.

Heap entries are ``(time, priority, seq, event, fn)``: exactly one of
``event`` / ``fn`` is set, and ``seq`` is unique, so neither is ever compared.
"""

from __future__ import annotations

from heapq import heappop, heappush
from sys import getrefcount
from typing import Any, Callable, Generator, Iterable, Optional


class SimulationError(Exception):
    """Raised for illegal engine operations (double-trigger, bad yields)."""


# Scheduling priorities: URGENT fires before NORMAL at the same timestamp.
URGENT = 0
NORMAL = 1

#: Upper bound on recycled Timeout instances kept by an Environment.
_TIMEOUT_POOL_MAX = 256


class Event:
    """A one-shot occurrence that processes can wait on.

    An event is *triggered* (scheduled to fire), then *processed* (its
    callbacks run).  ``succeed`` sets a value; ``fail`` sets an exception
    that propagates into every waiting process.
    """

    __slots__ = ("env", "callbacks", "_value", "_exception", "_ok",
                 "_defused")

    def __init__(self, env: "Environment"):
        self.env = env
        self.callbacks: Optional[list[Callable[["Event"], None]]] = []
        self._value: Any = None
        self._exception: Optional[BaseException] = None
        self._ok: Optional[bool] = None  # None = untriggered
        self._defused = False

    @property
    def triggered(self) -> bool:
        return self._ok is not None

    @property
    def processed(self) -> bool:
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        if self._ok is None:
            raise SimulationError("event has not been triggered")
        return self._ok

    @property
    def value(self) -> Any:
        if self._ok is None:
            raise SimulationError("event has not been triggered")
        if self._exception is not None:
            raise self._exception
        return self._value

    def succeed(self, value: Any = None) -> "Event":
        if self._ok is not None:
            raise SimulationError(f"{self!r} already triggered")
        self._ok = True
        self._value = value
        self.env._schedule(self, NORMAL)
        return self

    def fail(self, exception: BaseException) -> "Event":
        if self._ok is not None:
            raise SimulationError(f"{self!r} already triggered")
        if not isinstance(exception, BaseException):
            raise TypeError(f"fail() needs an exception, got {exception!r}")
        self._ok = False
        self._exception = exception
        self.env._schedule(self, NORMAL)
        return self

    def resume_waiters(self, value: Any = None,
                       after: Optional["Event"] = None) -> None:
        """Resume this untriggered event's waiters without an entry of its
        own: when ``after`` fires, with ``after``'s value, or else now,
        inside the calling entry, with ``value``.

        For a gate whose outcome an already-scheduled entry decides (the
        ack lane, :meth:`Transport._ack`, or the end of a fast-path access
        :meth:`FastPath.execute` waits on): resuming now is what popping
        the entry the gate replaced would have done, and handing the
        waiters to ``after`` skips a resume that would only have waited on
        it.  The event itself never fires.
        """
        callbacks, self.callbacks = self.callbacks, None
        if after is not None:
            after.callbacks += callbacks
            return
        self._ok, self._value = True, value
        for callback in callbacks:
            callback(self)

    def __repr__(self) -> str:
        if self.callbacks is None:
            state = "processed"
        else:
            state = "triggered" if self.triggered else "pending"
        return f"<{type(self).__name__} {state} at t={self.env.now}>"


class Timeout(Event):
    """An event that fires ``delay`` ns after creation.

    Instances created through :meth:`Environment.timeout` may be recycled
    once fully processed and unreferenced; hold the returned object (or
    create ``Timeout`` directly) to opt out.
    """

    __slots__ = ("delay",)

    def __init__(self, env: "Environment", delay: int, value: Any = None):
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        super().__init__(env)
        self.delay = delay
        self._ok = True
        self._value = value
        env._schedule(self, NORMAL, delay=delay)


class Initialize(Event):
    """Internal event that starts a process at its creation time."""

    __slots__ = ()

    def __init__(self, env: "Environment", process: "Process"):
        super().__init__(env)
        self._ok = True
        self._value = None
        self.callbacks.append(process._resume)
        env._schedule(self, URGENT)


def _check_generator(generator: Generator) -> Generator:
    if not hasattr(generator, "throw"):
        raise TypeError(f"a process needs a generator, got {generator!r}")
    return generator


def _resume(runner, event: Event) -> None:
    """Drive ``runner``'s generator from ``event``'s outcome.

    The one resume loop behind :class:`Process` and
    :meth:`Environment.spawn`, bound as each class's ``_resume``: it
    continues through already-processed events and stops at the first
    yielded event still to fire, or hands the generator's end to
    ``runner._finish(ok, value)``.
    """
    generator = runner._generator
    while True:
        try:
            if event._ok:
                event = generator.send(event._value)
            else:
                event._defused = True
                event = generator.throw(event._exception)
        except StopIteration as stop:
            runner._finish(True, stop.value)
            return
        except BaseException as exc:
            runner._finish(False, exc)
            return
        if not isinstance(event, Event):
            runner._finish(False, SimulationError(
                f"process yielded a non-event: {event!r}"))
            return
        if event.callbacks is not None:
            event.callbacks.append(runner._resume)
            return


class Process(Event):
    """A running generator; also an event that fires when the generator ends.

    The generator yields :class:`Event` instances; the process resumes when
    the yielded event fires, receiving its value (or exception).
    """

    __slots__ = ("_generator",)

    def __init__(self, env: "Environment", generator: Generator):
        self._generator = _check_generator(generator)
        super().__init__(env)
        Initialize(env, self)

    @property
    def is_alive(self) -> bool:
        return self._ok is None

    _resume = _resume

    def _finish(self, ok: bool, value: Any) -> None:
        self._ok = ok
        if ok:
            self._value = value
        else:
            self._exception = value
        self.env._schedule(self, NORMAL)


class AllOf(Event):
    """Fires once every constituent event has fired; fails with the first
    constituent that fails.  Its value maps each event to its value."""

    __slots__ = ("_events", "_pending")

    def __init__(self, env: "Environment", events: Iterable[Event]):
        super().__init__(env)
        self._events = list(events)
        for event in self._events:
            if not isinstance(event, Event):
                raise TypeError(f"all_of needs events, got {event!r}")
        self._pending = len(self._events)
        if not self._events:
            self.succeed({})
            return
        for event in self._events:
            if event.callbacks is None:
                self._check(event)
            else:
                event.callbacks.append(self._check)

    def _check(self, event: Event) -> None:
        if self._ok is not None:
            return
        if not event._ok:
            event._defused = True
            self.fail(event._exception)  # type: ignore[arg-type]
            return
        self._pending -= 1
        if not self._pending:
            self.succeed({event: event._value for event in self._events})


class _Started:
    """What a spawned generator is first resumed with: ``send(None)``."""

    _ok = True
    _value = None


class _Spawned:
    """A generator resumed by the events it yields, that nobody waits on.

    :meth:`Environment.spawn`'s stand-in for a :class:`Process`: no event
    of its own, so nothing is scheduled when it starts or when it ends.
    """

    __slots__ = ("_generator",)

    def __init__(self, generator: Generator):
        self._generator = _check_generator(generator)

    _resume = _resume

    def _finish(self, ok: bool, value: Any) -> None:
        # Nobody waits on it, so a failure leaves run() from right here.
        if not ok:
            raise value


class Environment:
    """The simulation driver: clock plus event queue."""

    __slots__ = ("now", "_queue", "_seq", "_timeout_pool")

    def __init__(self, initial_time: int = 0):
        #: Current simulated time in nanoseconds: a plain slot that the
        #: drain loop writes on each pop, so a read is not a call.
        self.now = int(initial_time)
        self._queue: list[tuple[int, int, int, Optional[Event],
                                Optional[Callable[[], None]]]] = []
        self._seq = 0
        self._timeout_pool: list[Timeout] = []

    # -- event factories ---------------------------------------------------

    def event(self) -> Event:
        return Event(self)

    def timeout(self, delay: int, value: Any = None) -> Timeout:
        pool = self._timeout_pool
        if pool:
            delay = int(delay)
            if delay < 0:
                raise ValueError(f"negative delay {delay}")
            # A Timeout never fails: its _ok and _exception never change,
            # and _defused is read only for a failed event.
            timeout = pool.pop()
            timeout.callbacks = []
            timeout._value = value
            timeout.delay = delay
            self._schedule(timeout, NORMAL, delay=delay)
            return timeout
        return Timeout(self, int(delay), value)

    def schedule_callback(self, delay: int, fn: Callable[[], None]) -> None:
        """Run ``fn()`` after ``delay`` ns: one bare heap entry, no event.

        For work with no suspension point after the delay (packet
        delivery, NACK generation, timer expiry).  ``fn`` takes no
        arguments; use ``functools.partial`` to bind some.  Nothing is
        returned because there is nothing to wait on or cancel — a timer
        that may go stale makes ``fn`` a no-op instead.
        """
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        # _schedule, inlined: the entry the engine pops most often.
        seq = self._seq
        self._seq = seq + 1
        heappush(self._queue, (self.now + delay, NORMAL, seq, None, fn))

    def process(self, generator: Generator) -> Process:
        return Process(self, generator)

    def spawn(self, generator: Generator) -> None:
        """Run ``generator`` as a process that nobody can wait on.

        It starts *inline*, inside the calling event, and a normal return
        schedules nothing: two events fewer than :meth:`process`.  That is
        legal exactly where the call is the last thing its event does (and
        the event started no other process before it) — the
        ``Initialize`` it replaces is URGENT at the current time, so it
        would have been the very next pop and every other event keeps its
        relative order.  An exception the generator lets escape propagates
        out of :meth:`run` from the event that resumed it.
        """
        _Spawned(generator)._resume(_Started)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    # -- scheduling ---------------------------------------------------------

    def _schedule(self, event: Optional[Event], priority: int, delay: int = 0,
                  fn: Optional[Callable[[], None]] = None) -> None:
        seq = self._seq
        self._seq = seq + 1
        heappush(self._queue, (self.now + delay, priority, seq, event, fn))

    def step(self) -> None:
        """Process one entry; raises :class:`SimulationError` when empty.

        The one-event form of the loop in :meth:`run`, for single-stepping.
        """
        if not self._queue:
            raise SimulationError("no scheduled events")
        when, _prio, _seq, event, fn = heappop(self._queue)
        self.now = when
        if event is None:
            fn()
            return
        callbacks, event.callbacks = event.callbacks, None
        for callback in callbacks:
            callback(event)
        if not event._ok and not event._defused:
            raise event._exception  # type: ignore[misc]
        if (type(event) is Timeout
                and len(self._timeout_pool) < _TIMEOUT_POOL_MAX
                and getrefcount(event) == 2):
            event._value = None
            self._timeout_pool.append(event)

    def run(self, until: Optional[int | Event] = None) -> Any:
        """Run until the queue drains, a deadline passes, or an event fires.

        ``until`` may be an absolute time (ns) or an :class:`Event`; when an
        event is given, its value is returned.
        """
        sentinel = deadline = None
        if isinstance(until, Event):
            sentinel = until
            if sentinel.callbacks is None:
                # Already processed: resolve immediately and
                # deterministically instead of touching the queue at all
                # (re-raising if it failed).
                return sentinel.value
        elif until is not None:
            deadline = int(until)
            if deadline < self.now:
                raise ValueError(
                    f"until={deadline} is in the past (now={self.now})")
        queue = self._queue
        pool = self._timeout_pool
        while queue and (deadline is None or queue[0][0] <= deadline):
            when, _prio, _seq, event, fn = heappop(queue)
            self.now = when
            if event is None:
                fn()
            else:
                callbacks, event.callbacks = event.callbacks, None
                for callback in callbacks:
                    callback(event)
                if not event._ok and not event._defused:
                    raise event._exception  # type: ignore[misc]
                # Recycle fully-processed, unreferenced timeouts.  The
                # refcount guard (event local + getrefcount argument = 2)
                # proves no process, condition, or user variable still
                # holds the object, so reuse can never be observed from
                # outside the engine.
                if (type(event) is Timeout
                        and len(pool) < _TIMEOUT_POOL_MAX
                        and getrefcount(event) == 2):
                    event._value = None
                    pool.append(event)
            if sentinel is not None and sentinel.callbacks is None:
                return sentinel.value
        if sentinel is not None:
            raise SimulationError(
                "event queue drained before the awaited event fired")
        if deadline is not None:
            self.now = deadline
        return None
