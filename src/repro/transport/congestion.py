"""Delay-based congestion and incast control (paper section 4.4).

One congestion window per (CN, MN) pair limits outstanding *requests*;
the default algorithm grows it additively while measured RTT stays under
target and shrinks multiplicatively when delay inflates (Swift-style).
Like Swift, cwnd may fall below one packet — a cwnd of 0.1 means one send
per 10 target-RTTs — which is how a CN backs off when the MN's downlink
is incast-congested.

Because all transport logic lives in CN software, swapping the congestion
algorithm is a library change (the paper's R7 explicitly calls for this):
:func:`make_congestion_controller` builds the algorithm named by
``CLibParams.cc_algorithm`` — ``"swift"`` (default), ``"timely"``
(gradient-based), or ``"static"`` (fixed window, the ablation baseline).

The incast window bounds the *bytes of expected responses* outstanding,
exploiting the fact that the CN knows every response's size in advance.
"""

from __future__ import annotations

from repro.params import CLibParams


class CongestionController:
    """Swift-style AIMD on end-to-end delay (the paper's design)."""

    name = "swift"

    def __init__(self, params: CLibParams):
        self.params = params
        self.cwnd = params.cwnd_init
        self.outstanding = 0
        self.acks = 0
        self.decreases = 0

    # -- admission ----------------------------------------------------------------

    def can_send(self, now: int, last_send: int) -> bool:
        """May one more request go out right now?"""
        if self.cwnd >= 1.0:
            return self.outstanding < int(self.cwnd)
        # Sub-packet window: at most one outstanding, paced apart.
        if self.outstanding >= 1:
            return False
        return now - last_send >= self.pacing_interval_ns()

    def pacing_interval_ns(self) -> int:
        """Send spacing when cwnd < 1 (one packet per 1/cwnd RTTs)."""
        if self.cwnd >= 1.0:
            return 0
        return int(self.params.target_rtt_ns / max(self.cwnd,
                                                   self.params.cwnd_min))

    def on_send(self) -> None:
        self.outstanding += 1

    # -- feedback ----------------------------------------------------------------

    def on_ack(self, rtt_ns: int) -> None:
        """A response arrived: AIMD update from the delay signal."""
        self.outstanding = max(0, self.outstanding - 1)
        self.acks += 1
        if rtt_ns <= self.params.target_rtt_ns:
            self.cwnd = min(self.params.cwnd_max,
                            self.cwnd + self.params.cwnd_additive_increase
                            / max(self.cwnd, 1.0))
        else:
            self.cwnd = max(self.params.cwnd_min,
                            self.cwnd * self.params.cwnd_multiplicative_decrease)
            self.decreases += 1

    def on_timeout(self) -> None:
        """A request timed out: treat as severe congestion."""
        self.outstanding = max(0, self.outstanding - 1)
        self.cwnd = max(self.params.cwnd_min,
                        self.cwnd * self.params.cwnd_multiplicative_decrease ** 2)
        self.decreases += 1


class TimelyController(CongestionController):
    """TIMELY-style gradient congestion control (Mittal et al.).

    Reacts to the *slope* of the RTT signal, not just its level: rising
    delay cuts the window proportionally to the normalized gradient;
    falling or flat delay below the target grows it additively.  Shares
    the Swift-style sub-packet pacing machinery.
    """

    name = "timely"

    #: Gradient smoothing (EWMA weight) and the decrease scaler.
    ALPHA = 0.5
    BETA = 0.8

    def __init__(self, params: CLibParams):
        super().__init__(params)
        self._prev_rtt: float | None = None
        self._gradient = 0.0

    def on_ack(self, rtt_ns: int) -> None:
        self.outstanding = max(0, self.outstanding - 1)
        self.acks += 1
        if self._prev_rtt is None:
            self._prev_rtt = float(rtt_ns)
            return
        delta = (rtt_ns - self._prev_rtt) / max(self.params.target_rtt_ns, 1)
        self._prev_rtt = float(rtt_ns)
        self._gradient = ((1 - self.ALPHA) * self._gradient
                          + self.ALPHA * delta)
        if rtt_ns < self.params.target_rtt_ns or self._gradient <= 0:
            self.cwnd = min(self.params.cwnd_max,
                            self.cwnd + self.params.cwnd_additive_increase
                            / max(self.cwnd, 1.0))
        else:
            factor = max(0.3, 1.0 - self.BETA * min(self._gradient, 1.0))
            self.cwnd = max(self.params.cwnd_min, self.cwnd * factor)
            self.decreases += 1


class StaticWindowController(CongestionController):
    """No adaptation: a fixed window (the what-if-we-do-nothing baseline)."""

    name = "static"

    def on_ack(self, rtt_ns: int) -> None:
        self.outstanding = max(0, self.outstanding - 1)
        self.acks += 1

    def on_timeout(self) -> None:
        self.outstanding = max(0, self.outstanding - 1)


#: Algorithm registry for make_congestion_controller.
CC_ALGORITHMS = {
    "swift": CongestionController,
    "timely": TimelyController,
    "static": StaticWindowController,
}


def make_congestion_controller(params: CLibParams) -> CongestionController:
    """Build the controller named by ``params.cc_algorithm`` (which
    :class:`CLibParams` checked against :data:`CC_ALGORITHMS`)."""
    return CC_ALGORITHMS[params.cc_algorithm](params)


class IncastController:
    """Bounds outstanding expected-response bytes arriving at this CN."""

    def __init__(self, params: CLibParams):
        self.iwnd_bytes = params.iwnd_bytes
        self.outstanding_bytes = 0

    def can_send(self, expected_response_bytes: int) -> bool:
        if expected_response_bytes > self.iwnd_bytes:
            # A single over-window response is admitted alone rather than
            # deadlocking; it simply must be the only one outstanding.
            return self.outstanding_bytes == 0
        return (self.outstanding_bytes + expected_response_bytes
                <= self.iwnd_bytes)

    def on_send(self, expected_response_bytes: int) -> None:
        self.outstanding_bytes += expected_response_bytes

    def on_complete(self, expected_response_bytes: int) -> None:
        self.outstanding_bytes = max(
            0, self.outstanding_bytes - expected_response_bytes)
