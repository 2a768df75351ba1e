"""Intra-thread inter-request ordering at the CN (paper section 4.5).

Synchronous requests can never reorder (one outstanding per thread), so
the tracker exists for asynchronous requests: CLib matches every new
request's virtual page numbers against in-flight ones and blocks it until
any WAR/RAW/WAW conflict drains.  Tracking is page-granular — the paper's
stated trade-off accepting false dependencies for tiny metadata.

A *release* (rrelease/rfence/runlock) waits for every in-flight request
of the thread, giving the ARMv8-like release consistency of section 3.1.

Granularity is configurable (the paper's stated future work): ``"page"``
(the paper's default — tiny metadata, false dependencies possible) or
``"byte"`` (exact range overlap — no false dependencies, more tracking
state per in-flight request).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional

from repro.core.addr import AccessType, PageSpec
from repro.sim import Environment, Event


@dataclass
class _Inflight:
    """One in-flight request: its footprint, kind, and completion event."""

    pages: frozenset[int]
    start: int
    end: int
    is_write: bool
    done: Event
    tag: int = 0


class DependencyTracker:
    """WAR/RAW/WAW detection for one thread at configurable granularity."""

    GRANULARITIES = ("page", "byte")

    def __init__(self, env: Environment, page_spec: PageSpec,
                 granularity: str = "page"):
        if granularity not in self.GRANULARITIES:
            raise ValueError(f"granularity must be one of "
                             f"{self.GRANULARITIES}, got {granularity!r}")
        self.env = env
        self.page_spec = page_spec
        self.granularity = granularity
        self._inflight: list[_Inflight] = []
        self._next_tag = 0
        self.blocked_count = 0   # requests that had to wait (diagnostics)

    @property
    def inflight_count(self) -> int:
        return len(self._inflight)

    def _pages_of(self, va: int, size: int) -> frozenset[int]:
        return frozenset(self.page_spec.pages_spanned(va, size))

    def _overlaps(self, entry: _Inflight, va: int, size: int,
                  pages: frozenset[int]) -> bool:
        if self.granularity == "byte":
            return entry.start < va + size and va < entry.end
        return bool(pages & entry.pages)

    def conflicts(self, va: int, size: int, is_write: bool) -> list[Event]:
        """Completion events of every conflicting in-flight request.

        Conflict = overlapping footprint and at least one side writes
        (RAW, WAR, WAW); two reads never conflict.
        """
        pages = self._pages_of(va, size)
        return [
            entry.done for entry in self._inflight
            if (is_write or entry.is_write)
            and self._overlaps(entry, va, size, pages)
        ]

    def register(self, va: int, size: int, is_write: bool) -> Event:
        """Admit a request; returns the completion event to fire later."""
        done = self.env.event()
        entry = _Inflight(pages=self._pages_of(va, size), start=va,
                          end=va + size, is_write=is_write,
                          done=done, tag=self._next_tag)
        self._next_tag += 1
        self._inflight.append(entry)
        done.callbacks.append(lambda _event, _entry=entry: self._retire(_entry))
        return done

    def _retire(self, entry: _Inflight) -> None:
        try:
            self._inflight.remove(entry)
        except ValueError:
            pass

    def wait_for_conflicts(self, va: int, size: int, is_write: bool):
        """What to ``yield from`` to block until conflicting requests
        finish: nothing at all while none conflicts."""
        events = self._inflight and self.conflicts(va, size, is_write)
        if not events:
            return ()
        self.blocked_count += 1
        return self._wait(events)

    def drain(self):
        """What to ``yield from`` to wait for *all* in-flight requests
        (release): nothing at all while there are none."""
        events = [entry.done for entry in self._inflight]
        return self._wait(events) if events else ()

    def _wait(self, events: list[Event]):
        yield self.env.all_of(events)
