"""Point-to-point link: serialization, propagation, loss, and corruption.

A link serializes packets one at a time at its configured rate (so an
overloaded link builds queueing delay — the congestion signal CLib's
delay-based AIMD reacts to) and delivers each after a propagation delay
plus bounded jitter.  Loss and corruption are Bernoulli per packet from a
dedicated seeded stream.

The link is event-driven rather than process-driven: serialization is
deterministic FIFO, so the transmit-complete time of every packet is known
at ``send`` time (``max(now, free_at) + transmit_ns``).  One scheduled
delivery callback per packet replaces the former pump process's three heap
entries — same timestamps, same per-stream RNG draw order, a third of the
engine events.
"""

from __future__ import annotations

from collections import deque
from functools import partial
from typing import Callable, Optional

from repro.net.packet import Packet
from repro.params import transmit_time_ns
from repro.sim import Environment
from repro.sim.rng import RandomStream
from repro.telemetry.metrics import MetricsRegistry

Deliver = Callable[[Packet], None]


class Link:
    """Unidirectional link with FIFO serialization."""

    def __init__(self, env: Environment, name: str, rate_bps: int,
                 propagation_ns: int, deliver: Deliver,
                 rng: Optional[RandomStream] = None,
                 loss_rate: float = 0.0, corruption_rate: float = 0.0,
                 jitter_ns: int = 0,
                 registry: Optional[MetricsRegistry] = None,
                 deliver_env: Optional[Environment] = None):
        self.env = env
        # Under the partitioned engine the serializer state lives with the
        # sender while the delivery callback fires on the *receiver's*
        # event wheel.  In a flat environment both are the same.
        self.deliver_env = deliver_env if deliver_env is not None else env
        self.name = name
        self.rate_bps = rate_bps
        self.propagation_ns = propagation_ns
        self.deliver = deliver
        self.rng = rng or RandomStream(0, f"link/{name}")
        self.loss_rate = loss_rate
        self.corruption_rate = corruption_rate
        self.jitter_ns = jitter_ns
        # rng.uniform_int(0, jitter_ns) as Random.randint draws it: a
        # getrandbits rejection loop over the span's bit width.  The span,
        # the width and the bound method are fixed, so bound once here.
        self._jitter_span = jitter_ns + 1
        self._jitter_bits = self._jitter_span.bit_length()
        self._getrandbits = self.rng._rng.getrandbits
        self.up = True                          # fault injection: link state
        # Transmit-complete times of the packets still serializing or
        # queued as of the last send; the tail is when the serializer
        # frees up.  Pruned at send, so it is bounded by the backlog.
        self._completions: deque[int] = deque()
        # wire bytes -> serialization ns; at most header + MTU keys.
        self._transmit_cache: dict[int, int] = {}
        self.packets_sent = 0
        self.packets_dropped = 0
        self.packets_dropped_down = 0
        self.packets_corrupted = 0
        self.bytes_sent = 0
        # Span tracing (None = disabled, the common case).
        self.tracer = None
        self.metrics = m = (registry if registry is not None
                            else MetricsRegistry()).scope(f"link.{name}")
        m.counter("packets_sent", fn=lambda: self.packets_sent)
        m.counter("packets_dropped", fn=lambda: self.packets_dropped)
        m.counter("packets_dropped_down",
                  fn=lambda: self.packets_dropped_down)
        m.counter("packets_corrupted", fn=lambda: self.packets_corrupted)
        m.counter("bytes_sent", fn=lambda: self.bytes_sent, unit="bytes")
        m.gauge("queue_depth", fn=lambda: self.queue_depth)

    def set_tracer(self, tracer) -> None:
        """Enable/disable span tracing of this link's drops."""
        self.tracer = tracer
        if tracer is None:
            return
        self._down_site, self._loss_site, self._corrupt_site = (
            tracer.site(name, "net", self.name, ("dst",))
            for name in ("drop:down", "drop:loss", "corrupt"))

    def set_down(self) -> None:
        """Take the link down: every send is dropped, no delivery scheduled."""
        self.up = False

    def set_up(self) -> None:
        """Bring the link back up; queued serializer state was lost with it."""
        self.up = True

    def send(self, packet: Packet) -> None:
        """Transmit a packet after any queued ones (non-blocking)."""
        if not self.up:
            # A downed link is silent: the packet vanishes without touching
            # the serializer, the RNG streams, or any delivery callback, so
            # the no-fault event/draw sequence is untouched by this branch.
            self.packets_dropped_down += 1
            if self.tracer is not None:
                self.tracer.instant(self._down_site, packet.header.dst)
            return
        now = self.env.now
        wire_bytes = packet.wire_bytes
        transmit = self._transmit_cache.get(wire_bytes)
        if transmit is None:
            transmit = self._transmit_cache[wire_bytes] = self.transmit_ns(
                wire_bytes)
        completions = self._completions
        while completions and completions[0] <= now:
            completions.popleft()
        done = (completions[-1] if completions else now) + transmit
        completions.append(done)
        self.packets_sent += 1
        self.bytes_sent += wire_bytes
        # chance() draws nothing at rate <= 0, so skipping the call there
        # leaves the stream where it was.
        rng = self.rng
        if self.loss_rate > 0.0 and rng.chance(self.loss_rate):
            self.packets_dropped += 1
            if self.tracer is not None:
                self.tracer.instant(self._loss_site, packet.header.dst)
            return
        if self.corruption_rate > 0.0 and rng.chance(self.corruption_rate):
            self.packets_corrupted += 1
            packet.corrupt = True
            if self.tracer is not None:
                self.tracer.instant(self._corrupt_site, packet.header.dst)
        delay = done - now + self.propagation_ns
        if self.jitter_ns:
            span, bits = self._jitter_span, self._jitter_bits
            jitter = self._getrandbits(bits)
            while jitter >= span:
                jitter = self._getrandbits(bits)
            delay += jitter
        self.deliver_env.schedule_callback(delay, partial(self.deliver, packet))

    @property
    def queue_depth(self) -> int:
        """Packets waiting behind the one currently serializing."""
        now = self.env.now
        return max(0, sum(done > now for done in self._completions) - 1)

    def transmit_ns(self, wire_bytes: int) -> int:
        return transmit_time_ns(wire_bytes, self.rate_bps)
