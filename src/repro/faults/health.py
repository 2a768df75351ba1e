"""Heartbeat-based board health tracking.

The global controller must not place regions on a dead board, but — like
a real control plane — it cannot observe ``board.alive`` directly; it
only sees missed heartbeats.  :class:`HealthMonitor` polls each board
every ``INTERVAL_NS`` and declares it dead after ``MISS_THRESHOLD``
consecutive misses, giving failure *detection latency* its real shape:
a crashed board keeps receiving (and dropping) traffic until the monitor
notices.

The monitor is deterministic: fixed interval, no RNG, and it exists only
on a cluster built with the ``"health"`` layer
(``ClioCluster(layers=("health",))``; a rack cluster always has it), so
a bare run's event sequence is untouched.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.telemetry.metrics import MetricsRegistry

#: Heartbeat period.
INTERVAL_NS = 100_000
#: Consecutive missed heartbeats before a board is believed dead.
MISS_THRESHOLD = 3


@dataclass(frozen=True)
class HealthTransition:
    """One belief change: the monitor marked a board up or down."""

    at_ns: int
    board: str
    alive: bool


class HealthMonitor:
    """Polls boards every ``INTERVAL_NS``; belief lags reality by design."""

    def __init__(self, env, boards: Sequence,
                 registry: Optional[MetricsRegistry] = None):
        self.env = env
        self._boards = list(boards)
        self._misses = {board.name: 0 for board in self._boards}
        self._believed_alive = {board.name: True for board in self._boards}
        self.transitions: list[HealthTransition] = []
        self.heartbeats = 0
        self.tracer = None
        self.metrics = (registry if registry is not None
                        else MetricsRegistry()).scope("health")
        self.metrics.counter("heartbeats", fn=lambda: self.heartbeats)
        self.metrics.gauge("dead_boards", fn=self.dead_boards)
        self.metrics.counter("transitions", fn=lambda: len(self.transitions))

    def start(self) -> None:
        """Begin the periodic heartbeat sweep; it runs for the rest of
        the simulation."""
        self.env.schedule_callback(INTERVAL_NS, self._sweep)

    def _sweep(self) -> None:
        for board in self._boards:
            name = board.name
            if board.alive:
                # Heartbeat answered: instant (mis)trust recovery.
                self.heartbeats += 1
                self._misses[name] = 0
                if not self._believed_alive[name]:
                    self._believed_alive[name] = True
                    self.transitions.append(
                        HealthTransition(self.env.now, name, True))
                    if self.tracer is not None:
                        self.tracer.instant(self.tracer.site(
                            "board_up", "health", name))
            else:
                self._misses[name] += 1
                if (self._believed_alive[name]
                        and self._misses[name] >= MISS_THRESHOLD):
                    self._believed_alive[name] = False
                    self.transitions.append(
                        HealthTransition(self.env.now, name, False))
                    if self.tracer is not None:
                        self.tracer.instant(
                            self.tracer.site("board_down", "health", name,
                                             ("misses",)),
                            self._misses[name])
        self.env.schedule_callback(INTERVAL_NS, self._sweep)

    # -- queries -----------------------------------------------------------------

    def is_alive(self, name: str) -> bool:
        """Current *belief* — lags the board's true state by detection time."""
        return self._believed_alive.get(name, False)

    def dead_boards(self) -> list[str]:
        return sorted(name for name, alive in self._believed_alive.items()
                      if not alive)
