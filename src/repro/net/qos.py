"""Per-tenant egress shaping at the switch (token bucket / GCRA).

Multi-tenant pooling shares the MN's downlink — the 10 Gbps port that
incast congests.  Without shaping, one tenant's burst parks behind the
FIFO serializer in :class:`repro.net.link.Link` and every other tenant's
RTT inflates with it (the congestion signal CLib reacts to — but a
*victim* tenant's CLib cannot un-inflate a queue someone else built).

The :class:`EgressShaper` sits between the switch's forwarding decision
and the egress link.  Each tenant gets a GCRA (virtual-scheduling token
bucket): a packet whose tenant is within its reserved rate — ``share``
of the port, with ``burst_bytes`` of slack — forwards to the link
immediately; a non-conforming packet waits in the tenant's FIFO until
its theoretical arrival time.  Shares are reservations with a hard
ceiling (non-work-conserving): an aggressor above its share queues *in
its own FIFO*, not on the port, so the victim's packets reach an almost
idle serializer.  That is the isolation bar the noisy-neighbor scenario
pins: victim p99 inflation ≤ 1.5x with shaping on, unbounded off.

Packets from nodes that belong to no tenant bypass the shaper entirely.

Determinism: pure integer arithmetic, no RNG; release callbacks are
scheduled on the switch tier's environment, exactly where unshapped
forwarding already runs, so flat and partitioned engines stay
bit-identical and a QoS-off cluster schedules zero extra events.
"""

from __future__ import annotations

from collections import deque
from typing import Optional

from repro.net.link import Link
from repro.net.packet import Packet
from repro.params import SEC, QoSParams, transmit_time_ns
from repro.sim import Environment
from repro.telemetry.metrics import MetricsRegistry


class _TenantQueue:
    """GCRA state + backlog FIFO for one tenant at one egress port."""

    __slots__ = ("name", "ns_per_byte_num", "rate_bps", "tau_ns", "tat",
                 "fifo", "release_pending", "passed", "shaped",
                 "shaped_delay_ns", "bytes_sent")

    def __init__(self, name: str, rate_bps: int, burst_bytes: int):
        self.name = name
        self.rate_bps = rate_bps
        # Burst allowance in time units at the reserved rate.
        self.tau_ns = (burst_bytes * 8 * SEC) // rate_bps
        self.tat = 0                      # theoretical arrival time
        self.fifo: deque = deque()        # (packet, enqueued_at)
        self.release_pending = False
        self.passed = 0
        self.shaped = 0
        self.shaped_delay_ns = 0
        self.bytes_sent = 0

    def emission_ns(self, wire_bytes: int) -> int:
        return transmit_time_ns(wire_bytes, self.rate_bps)


class EgressShaper:
    """Token-bucket shaping in front of one egress link."""

    def __init__(self, env: Environment, node: str, downlink: Link,
                 qos: QoSParams,
                 registry: Optional[MetricsRegistry] = None):
        self.env = env
        self.node = node
        self.downlink = downlink
        self.qos = qos
        self._queues: dict[str, _TenantQueue] = {}
        self._by_client: dict[str, _TenantQueue] = {}
        for tenant in qos.tenants:
            # A share is a fraction of the port the shaper fronts.
            rate = max(1, int(downlink.rate_bps * tenant.share))
            queue = _TenantQueue(tenant.name, rate, qos.burst_bytes)
            self._queues[tenant.name] = queue
            for client in tenant.clients:
                self._by_client[client] = queue
        self.unclassified = 0
        self.metrics = (registry if registry is not None
                        else MetricsRegistry()).scope(f"qos.{node}")
        self._register_metrics()

    # -- telemetry --------------------------------------------------------------------

    def _register_metrics(self) -> None:
        egress = self.metrics
        egress.counter("unclassified", "packets from nodes in no tenant",
                       fn=lambda: self.unclassified)
        egress.gauge("backlog", "packets held across all tenant FIFOs",
                     fn=lambda: self.backlog)
        for name, queue in self._queues.items():
            tenant_scope = egress.scope(f"tenant.{name}")
            tenant_scope.counter("passed", "packets forwarded within rate",
                                 fn=lambda q=queue: q.passed)
            tenant_scope.counter("shaped", "packets delayed by the bucket",
                                 fn=lambda q=queue: q.shaped)
            tenant_scope.counter("shaped_delay_ns",
                                 "total time packets sat in the FIFO",
                                 unit="ns",
                                 fn=lambda q=queue: q.shaped_delay_ns)
            tenant_scope.counter("bytes_sent",
                                 "wire bytes released to the link",
                                 unit="bytes",
                                 fn=lambda q=queue: q.bytes_sent)
            tenant_scope.gauge("queue_depth", "packets waiting in the FIFO",
                               fn=lambda q=queue: len(q.fifo))

    @property
    def backlog(self) -> int:
        """Packets currently held back across all tenant FIFOs."""
        return sum(len(queue.fifo) for queue in self._queues.values())

    # -- data path --------------------------------------------------------------------

    def send(self, packet: Packet) -> None:
        """Admit one forwarded packet; forward now or hold to conformance."""
        queue = self._by_client.get(packet.header.src)
        if queue is None:
            self.unclassified += 1
            self.downlink.send(packet)
            return
        now = self.env.now
        if not queue.fifo and queue.tat <= now + queue.tau_ns:
            # Conforming: spend burst credit and forward immediately.
            queue.tat = max(now, queue.tat) + queue.emission_ns(
                packet.wire_bytes)
            queue.passed += 1
            queue.bytes_sent += packet.wire_bytes
            self.downlink.send(packet)
            return
        queue.shaped += 1
        queue.fifo.append((packet, now))
        self._arm_release(queue)

    def _arm_release(self, queue: _TenantQueue) -> None:
        if queue.release_pending or not queue.fifo:
            return
        queue.release_pending = True
        delay = max(0, queue.tat - queue.tau_ns - self.env.now)
        self.env.schedule_callback(delay, lambda q=queue: self._release(q))

    def _release(self, queue: _TenantQueue) -> None:
        queue.release_pending = False
        if not queue.fifo:
            return
        packet, enqueued_at = queue.fifo.popleft()
        now = self.env.now
        queue.shaped_delay_ns += now - enqueued_at
        queue.tat = max(now, queue.tat) + queue.emission_ns(
            packet.wire_bytes)
        queue.bytes_sent += packet.wire_bytes
        self.downlink.send(packet)
        self._arm_release(queue)
