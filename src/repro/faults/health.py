"""Heartbeat-based board health tracking.

The global controller must not place regions on a dead board, but — like
a real control plane — it cannot observe ``board.alive`` directly; it
only sees missed heartbeats.  :class:`HealthMonitor` polls each board on
a fixed interval and declares it dead after ``miss_threshold``
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


@dataclass(frozen=True)
class HealthTransition:
    """One belief change: the monitor marked a board up or down."""

    at_ns: int
    board: str
    alive: bool


class HealthMonitor:
    """Polls boards every ``interval_ns``; belief lags reality by design."""

    def __init__(self, env, boards: Sequence, interval_ns: int = 100_000,
                 miss_threshold: int = 3,
                 registry: Optional[MetricsRegistry] = None):
        if interval_ns <= 0:
            raise ValueError(f"interval must be positive, got {interval_ns}")
        if miss_threshold < 1:
            raise ValueError(
                f"miss threshold must be >= 1, got {miss_threshold}")
        self.env = env
        self.interval_ns = interval_ns
        self.miss_threshold = miss_threshold
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
        self.env.schedule_callback(self.interval_ns, self._sweep)

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
                        and self._misses[name] >= self.miss_threshold):
                    self._believed_alive[name] = False
                    self.transitions.append(
                        HealthTransition(self.env.now, name, False))
                    if self.tracer is not None:
                        self.tracer.instant(
                            self.tracer.site("board_down", "health", name,
                                             ("misses",)),
                            self._misses[name])
        self.env.schedule_callback(self.interval_ns, self._sweep)

    # -- queries -----------------------------------------------------------------

    def is_alive(self, name: str) -> bool:
        """Current *belief* — lags the board's true state by detection time."""
        return self._believed_alive.get(name, False)

    def dead_boards(self) -> list[str]:
        return sorted(name for name, alive in self._believed_alive.items()
                      if not alive)
