"""Applies a :class:`~repro.faults.schedule.FaultSchedule` to a cluster.

The injector is pure mechanism: at arm time it walks the schedule and
registers one scheduled callback per event (relative to ``env.now``), so
fault application costs nothing on the simulation hot path and perturbs
no RNG stream — a schedule with zero events leaves a run bit-identical
to an uninjected one.

Every application (or deliberate skip, e.g. crashing a board that a
previous event already crashed) is recorded in :attr:`applied`, which is
part of the chaos fingerprint: same seed, same schedule, same log.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Optional

from repro.faults.schedule import FaultEvent, FaultKind, FaultSchedule


@dataclass(frozen=True)
class AppliedFault:
    """One injector action as it actually happened (absolute sim time)."""

    at_ns: int
    kind: FaultKind
    target: str
    applied: bool          # False when the event was a no-op (e.g. double crash)
    note: str = ""


class FaultInjector:
    """Arms a schedule against a :class:`~repro.cluster.ClioCluster`."""

    def __init__(self, cluster, schedule: FaultSchedule):
        schedule.validate()
        self.cluster = cluster
        self.env = cluster.env
        self.schedule = schedule
        self.applied: list[AppliedFault] = []
        self._boards = {board.name: board for board in cluster.mns}
        self._armed = False
        # Burst restore state: (node, attr) -> original per-link rates.
        self._burst_depth: dict[tuple[str, str], int] = {}
        self._saved_rates: dict[tuple[str, str], tuple[float, float]] = {}

    def arm(self) -> None:
        """Schedule every event relative to the current simulated time."""
        if self._armed:
            raise ValueError("injector is already armed")
        self._armed = True
        for event in self.schedule.events():
            self.env.schedule_callback(event.at_ns,
                                       partial(self._apply, event))

    # -- application ------------------------------------------------------------

    def _log(self, event: FaultEvent, applied: bool, note: str = "") -> None:
        self.applied.append(AppliedFault(self.env.now, event.kind,
                                         event.target, applied, note))
        tracer = getattr(self.cluster, "tracer", None)
        if tracer is not None:
            tracer.instant(
                tracer.site(f"fault:{event.kind.value}", "fault",
                            event.target, ("applied", "note")),
                applied, note)

    def _board(self, name: str):
        board = self._boards.get(name)
        if board is None:
            raise KeyError(f"unknown board {name!r} in fault schedule")
        return board

    def _apply(self, event: FaultEvent) -> None:
        kind = event.kind
        if kind is FaultKind.BOARD_CRASH:
            board = self._board(event.target)
            if not board.alive:
                self._log(event, False, "already crashed")
                return
            board.crash()
            self._log(event, True)
        elif kind is FaultKind.BOARD_RESTART:
            board = self._board(event.target)
            if board.alive:
                self._log(event, False, "not crashed")
                return
            board.restart()
            self._log(event, True)
        elif kind is FaultKind.LINK_DOWN:
            self.cluster.topology.set_node_up(event.target, False)
            self._log(event, True)
        elif kind is FaultKind.LINK_UP:
            self.cluster.topology.set_node_up(event.target, True)
            self._log(event, True)
        elif kind is FaultKind.STALL_BEGIN:
            board = self._board(event.target)
            if board.slow_path.stalled:
                self._log(event, False, "already stalled")
                return
            board.slow_path.begin_stall()
            self._log(event, True)
        elif kind is FaultKind.STALL_END:
            board = self._board(event.target)
            if not board.slow_path.stalled:
                self._log(event, False, "not stalled")
                return
            board.slow_path.end_stall()
            self._log(event, True)
        elif kind is FaultKind.LOSS_BURST:
            self._begin_burst(event, "loss_rate")
        elif kind is FaultKind.CORRUPTION_BURST:
            self._begin_burst(event, "corruption_rate")
        else:  # pragma: no cover - enum is exhaustive
            raise ValueError(f"unhandled fault kind {kind}")

    # -- bursts -----------------------------------------------------------------

    def _begin_burst(self, event: FaultEvent, attr: str) -> None:
        """Raise a link-rate attribute on both of a node's links, and
        schedule the restore; nested bursts restore only when the last
        one ends (depth counting keeps overlapping schedules sane)."""
        links = self.cluster.topology.links_for(event.target)
        key = (event.target, attr)
        if self._burst_depth.get(key, 0) == 0:
            self._saved_rates[key] = tuple(getattr(l, attr) for l in links)
        self._burst_depth[key] = self._burst_depth.get(key, 0) + 1
        for link in links:
            setattr(link, attr, event.rate)
        self._log(event, True, f"{attr}={event.rate:g} "
                               f"for {event.duration_ns} ns")
        self.env.schedule_callback(event.duration_ns,
                                   partial(self._end_burst, event, attr))

    def _end_burst(self, event: FaultEvent, attr: str) -> None:
        key = (event.target, attr)
        self._burst_depth[key] -= 1
        if self._burst_depth[key] > 0:
            return
        links = self.cluster.topology.links_for(event.target)
        for link, rate in zip(links, self._saved_rates.pop(key)):
            setattr(link, attr, rate)

    # -- reporting ---------------------------------------------------------------

    def applied_fingerprint(self) -> tuple:
        """Hashable, order-sensitive digest of everything that happened."""
        return tuple((a.at_ns, a.kind.value, a.target, a.applied)
                     for a in self.applied)
