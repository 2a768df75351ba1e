"""Connectionless request-response transport in CLib (paper section 4.4).

There are no connections: CLib stamps every request with a unique ID and
matches the MN's response (which carries the same ID) as the ACK.  A
request is retried — with a *fresh* ID plus the original's ID in
``retry_of`` — when a NACK arrives, the response is corrupted, or nothing
arrives within TIMEOUT.  Reliability and ordering live entirely at this
layer; packets may reorder freely underneath.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Optional

from repro.net.packet import (
    BatchSubOp,
    ClioHeader,
    Packet,
    PacketType,
    fragment_payload,
)
from repro.params import ClioParams, transmit_time_ns
from repro.sim import Environment, Event
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.spans import COMPLETE, END, Sites, Tracer
from repro.transport.congestion import (
    CongestionController,
    IncastController,
    make_congestion_controller,
)

#: Global request-ID source: unique across CNs and across retries.
_request_ids = itertools.count(1)

#: Members the request path tests, bound once: on CPython 3.11 every
#: ``PacketType.X`` load takes ``EnumType.__getattr__``'s slow hook.
_READ, _WRITE = PacketType.READ, PacketType.WRITE
_NACK, _CACHE_INVAL = PacketType.NACK, PacketType.CACHE_INVAL


class RequestFailed(Exception):
    """Original request and every retry failed (paper: report the error).

    Attempts are hard-capped at ``CLibParams.max_retries`` + 1: once the
    per-attempt backoff saturates at ``slow_timeout_ns`` the transport
    stops retrying and surfaces this typed error instead of spinning —
    a dead board or severed link fails loudly in bounded time.
    """

    def __init__(self, mn: str, packet_type, va: int, attempts: int,
                 reason: str):
        super().__init__(
            f"request to {mn} failed after {attempts} attempts "
            f"(type={packet_type.value}, va={va:#x}, last error: {reason})")
        self.mn = mn
        self.packet_type = packet_type
        self.va = va
        self.attempts = attempts
        self.reason = reason


@dataclass(slots=True)
class RequestOutcome:
    """A completed request: response body plus transport telemetry."""

    body: Any                 # ResponseBody from the MN
    data: Optional[bytes]     # reassembled read payload (if any)
    rtt_ns: int
    retries: int
    request_id: int


@dataclass(slots=True)
class BatchOutcome:
    """A completed multi-op frame: per-sub-op statuses + read data.

    ``statuses`` holds one entry per sub-op in issue order; ``data`` is
    the concatenation of every successful read's bytes in that same
    order (the CLib layer slices it back apart using the sub-op sizes).
    """

    statuses: tuple           # per-sub-op Status, in issue order
    data: bytes               # concatenated successful read payloads
    rtt_ns: int
    retries: int
    request_id: int


@dataclass(slots=True)
class _Pending:
    """Reassembly and completion state for one in-flight request ID, and
    what the ack lane (:meth:`Transport._ack`) needs to complete it."""

    done: Event
    sent_at: int
    request_id: int
    congestion: CongestionController
    response_bytes: int
    rtt_scale: int
    expected_fragments: int = 1
    fragments: dict[int, Packet] = field(default_factory=dict)
    #: The first of response, NACK, corruption and TIMEOUT sets this and
    #: wins; whatever arrives after it is stale.
    settled: bool = False
    nacked: bool = False
    corrupted: bool = False
    timed_out: bool = False
    rtt: int = 0

    def expire(self) -> None:
        """TIMEOUT callback: wake the waiter unless the attempt is settled."""
        if not self.settled:
            self.settled = self.timed_out = True
            self.done.succeed()


class Transport:
    """One CN's transport endpoint: send requests, match responses."""

    def __init__(self, env: Environment, node_name: str, topology,
                 params: ClioParams,
                 registry: Optional[MetricsRegistry] = None):
        self.env = env
        self.node_name = node_name
        self.topology = topology
        self.params = params
        clib = params.clib
        self._congestion: dict[str, CongestionController] = {}
        self._incast = IncastController(clib)
        self._pending: dict[int, _Pending] = {}
        self._send_waiters: deque[Event] = deque()
        self._last_send: dict[str, int] = {}
        self._fast_timeouts: dict[tuple[int, int], int] = {}
        self._tail_ns = clib.request_overhead_ns - clib.request_overhead_ns // 2
        self.stale_responses = 0
        self.total_retries = 0
        self.requests_issued = 0
        self.requests_completed = 0
        self.requests_failed = 0
        # Batch accounting.  A multi-op frame occupies exactly one window
        # slot and one request ID, so it counts once in requests_issued /
        # completed / failed (the conservation invariant is unchanged);
        # these counters additionally track the sub-ops it carried.
        self.batches_issued = 0
        self.batch_subops_issued = 0
        self.batch_subops_completed = 0
        # Hot-page cache hook (repro.cache): when a PageCache is attached
        # it consumes directory-initiated CACHE_INVAL messages; None (the
        # default) keeps the receive path byte-identical to cache-off runs.
        self.cache_listener = None
        topology.add_node(node_name, self.receive,
                          port_rate_bps=params.network.cn_nic_rate_bps,
                          node_env=env)
        # Telemetry: counters stay plain attributes; the registry holds
        # function-backed views under `transport.<node>.*`; span tracing
        # is off (None) unless the cluster enables it.
        self.tracer: Optional[Tracer] = None
        self.metrics = (registry if registry is not None
                        else MetricsRegistry()).scope(
                            f"transport.{node_name}")
        m = self.metrics
        m.counter("requests_issued", fn=lambda: self.requests_issued)
        m.counter("requests_completed", fn=lambda: self.requests_completed)
        m.counter("requests_failed", "original + all retries exhausted",
                  fn=lambda: self.requests_failed)
        m.counter("total_retries", fn=lambda: self.total_retries)
        m.counter("stale_responses", "responses to already-retried IDs",
                  fn=lambda: self.stale_responses)
        m.counter("batches_issued", "multi-op frames issued",
                  fn=lambda: self.batches_issued)
        m.counter("batch_subops_issued", "sub-ops carried by issued frames",
                  fn=lambda: self.batch_subops_issued)
        m.counter("batch_subops_completed", "sub-ops whose frame was acked",
                  fn=lambda: self.batch_subops_completed)
        m.gauge("pending", "in-flight request IDs",
                fn=lambda: len(self._pending))
        self._batch_sizes = m.histogram(
            "batch.size", "sub-ops per issued multi-op frame")

    def set_tracer(self, tracer: Optional[Tracer]) -> None:
        """Enable/disable span tracing and register this node's sites."""
        self.tracer = tracer
        if tracer is None:
            return
        self._trace_rows = Sites(self._register_sites)
        self._attempt_sites = tracer.sites(
            "attempt:", "transport", self.node_name,
            ("request_id", "mn", "retry_of", "outcome"))
        self._end_ok = tracer.end_site("outcome", "retries", "request_id",
                                       "rtt_ns")
        self._end_failed = tracer.end_site("outcome", "retries", "reason")

    def _register_sites(self, member: tuple) -> tuple:
        """The rows of one (packet type's value, MN): the request's BEGIN,
        and the row that settles it when its first attempt is acked, over
        the cells ``sent, acked, request_id, handle, now, rtt``."""
        kind, mn = member
        tracer, node = self.tracer, self.node_name
        args = ({"batch_size": int} if kind == PacketType.BATCH.value
                else {"va": int, "size": int})
        return (
            tracer.opening(tracer.site("request:" + kind, "transport", node,
                                       {"mn": mn, "pid": int, **args})),
            tracer.group(
                (COMPLETE, tracer.site(
                    "attempt:" + kind, "transport", node,
                    {"request_id": int, "mn": mn, "retry_of": None,
                     "outcome": "ok"}), 0, 1, 2),
                (END, tracer.site(None, None, None, {
                    "outcome": "ok", "retries": 0, "request_id": int,
                    "rtt_ns": int}), 3, 4, 2, 5)))

    def congestion(self, mn: str) -> CongestionController:
        controller = self._congestion.get(mn)
        if controller is None:
            controller = make_congestion_controller(self.params.clib)
            self._congestion[mn] = controller
        return controller

    # -- receive side -------------------------------------------------------------

    def receive(self, packet: Packet) -> None:
        header = packet.header
        if header.packet_type is _CACHE_INVAL:
            # Directory-initiated message, not a response to anything we
            # sent.  A corrupt copy is dropped like a loss — the directory
            # retransmits until the CN acks.
            listener = self.cache_listener
            if listener is not None and not packet.corrupt:
                listener(packet)
            return
        state = self._pending.get(header.request_id)
        if state is None or state.settled:
            self.stale_responses += 1   # the attempt is retried or settled
            return
        if header.packet_type is _NACK:
            state.nacked = True
        elif packet.corrupt:
            state.corrupted = True
        else:
            state.expected_fragments = header.fragments
            state.fragments[header.fragment] = packet
            if len(state.fragments) >= state.expected_fragments:
                state.settled = True
                self.env.schedule_callback(0, partial(self._ack, state))
            return
        state.settled = True
        state.done.succeed()

    def _ack(self, state: _Pending) -> None:
        """The ack lane: the entry that completes an acked attempt, in the
        slot ``state.done``'s own entry would take.  It does what the
        waiter resumed by that entry would do first -- free the window
        slot, feed congestion control the RTT, wake blocked senders --
        then hands the waiter to the completion-overhead timeout, so the
        caller chain resumes once per attempt.  Partial-bound, never
        stored on ``state``: no reference cycle."""
        self._incast.on_complete(state.response_bytes)
        rtt = state.rtt = self.env.now - state.sent_at
        state.congestion.on_ack(rtt // state.rtt_scale
                                if state.rtt_scale > 1 else rtt)
        self._wake_senders()
        del self._pending[state.request_id]
        state.done.resume_waiters(after=self.env.timeout(self._tail_ns))

    # -- admission (congestion + incast) ---------------------------------------------

    def _admit(self, mn: str, expected_response_bytes: int):
        congestion = self.congestion(mn)
        while True:
            now = self.env.now
            last = self._last_send.get(mn, -(10 ** 12))
            if (congestion.can_send(now, last)
                    and self._incast.can_send(expected_response_bytes)):
                return
            if congestion.cwnd < 1.0 and congestion.outstanding == 0:
                # Paced sub-packet window: sleep until the pacing gap closes.
                wait = max(1, congestion.pacing_interval_ns() - (now - last))
                yield self.env.timeout(wait)
            else:
                gate = self.env.event()
                self._send_waiters.append(gate)
                yield gate

    def _wake_senders(self) -> None:
        while self._send_waiters:
            gate = self._send_waiters.popleft()
            if not gate.triggered:
                gate.succeed()

    # -- send side -------------------------------------------------------------------

    def _emit(self, mn: str, request_id: int, packet_type: PacketType,
              pid: int, va: int, size: int, data: Optional[bytes],
              payload: Any, retry_of: Optional[int]) -> None:
        """Fragment one request into link-layer packets and transmit."""
        header_bytes = self.params.network.header_bytes
        mtu = self.params.network.mtu
        write = packet_type is _WRITE
        if not write or size <= mtu:
            # One packet, built directly: every request but a write
            # larger than the MTU.
            if write:
                payload = data[:size] if data is not None else None
            # Positional: a keyword call to a class packs a kwargs dict.
            header = ClioHeader(self.node_name, mn, request_id, packet_type,
                                pid, va, size, size, 0, 1, retry_of)
            self.topology.send(Packet(
                header, payload,
                header_bytes + (len(payload) if isinstance(payload, (bytes, bytearray)) else 0),
                False, self.env.now))
            return
        fragments = fragment_payload(size, mtu)
        count = len(fragments)
        for index, (offset, chunk) in enumerate(fragments):
            body = data[offset:offset + chunk] if data is not None else None
            header = ClioHeader(self.node_name, mn, request_id, packet_type,
                                pid, va + offset, chunk, size, index, count,
                                retry_of)
            self.topology.send(Packet(
                header, body,
                header_bytes + (len(body) if isinstance(body, (bytes, bytearray)) else 0),
                False, self.env.now))

    def _emit_batch(self, mn: str, request_id: int, pid: int,
                    sub_ops: tuple[BatchSubOp, ...], wire_bytes: int,
                    retry_of: Optional[int]) -> None:
        """Transmit one multi-op frame as a single link-layer packet.

        ``header.size`` carries the sub-op count (the geometry field a
        real frame header would need); per-op VAs/sizes live in the
        sub-op descriptors, already priced into ``wire_bytes``.
        """
        total = sum(sub.size for sub in sub_ops)
        header = ClioHeader(self.node_name, mn, request_id, PacketType.BATCH,
                            pid, sub_ops[0].va, len(sub_ops), total, 0, 1,
                            retry_of)
        self.topology.send(Packet(header, sub_ops, wire_bytes, False,
                                  self.env.now))

    #: Request types handled off the fast path: they get the long timeout.
    #: CACHE_REQ is here because a directory request can legitimately wait
    #: behind a held write transaction (recalls to other CNs in flight).
    #: A tuple: ``in`` tests it by identity, where a set runs
    #: ``Enum.__hash__``.
    SLOW_TYPES = (PacketType.ALLOC, PacketType.FREE, PacketType.OFFLOAD,
                  PacketType.FENCE, PacketType.CACHE_REQ)

    def request(self, mn: str, packet_type: PacketType, pid: int = 0,
                va: int = 0, size: int = 0, data: Optional[bytes] = None,
                payload: Any = None,
                expected_response_bytes: Optional[int] = None,
                timeout_ns: Optional[int] = None):
        """The process-generator that issues one request, retrying per
        section 4.5: ``yield from`` it at once.

        Returns a :class:`RequestOutcome`; raises
        :class:`RequestFailed` after the original + ``max_retries``
        attempts all fail.  A plain function returning :meth:`_transact`,
        so a caller pays no extra generator frame.
        """
        self.requests_issued += 1
        if expected_response_bytes is None:
            expected_response_bytes = self.params.network.header_bytes + (
                size if packet_type is _READ else 0)
        if timeout_ns is None:
            if (packet_type is not _READ and packet_type is not _WRITE
                    and packet_type in self.SLOW_TYPES):
                timeout_ns = self.params.clib.slow_timeout_ns
            else:
                # Large requests legitimately spend longer on the wire
                # (the MN port is the bottleneck); scale the TIMEOUT with
                # the expected wire occupancy so bulk transfers under load
                # don't spuriously retry.
                key = (size, expected_response_bytes)
                timeout_ns = self._fast_timeouts.get(key)
                if timeout_ns is None:
                    timeout_ns = self._fast_timeouts[key] = (
                        self.params.clib.timeout_ns + 4 * transmit_time_ns(
                            size + expected_response_bytes,
                            self.params.network.mn_port_rate_bps))

        def emit(request_id: int, retry_of: Optional[int]) -> None:
            self._emit(mn, request_id, packet_type, pid, va, size, data,
                       payload, retry_of)

        return self._transact(
            mn, packet_type, emit, expected_response_bytes, timeout_ns,
            va, (pid, va, size))

    def request_batch(self, mn: str, pid: int, sub_ops,
                      timeout_ns: Optional[int] = None):
        """Process-generator: issue one multi-op frame (repro.clib.batch).

        The frame is a single fast-path request on the wire: one request
        ID, one congestion-window slot, one retransmission unit (whole
        frame retried with a fresh ID; write-bearing frames dedup at the
        MN).  Returns a :class:`BatchOutcome` with per-sub-op statuses;
        raises :class:`RequestFailed` like :meth:`request`.
        """
        sub_ops = tuple(sub_ops)
        if not sub_ops:
            raise ValueError("request_batch needs at least one sub-op")
        clib = self.params.clib
        net = self.params.network
        request_bytes = net.header_bytes + sum(
            net.subop_header_bytes
            + (sub.size if sub.op is PacketType.WRITE else 0)
            for sub in sub_ops)
        if request_bytes > net.header_bytes + net.mtu:
            raise ValueError(
                f"batch frame exceeds the MTU ({request_bytes - net.header_bytes}"
                f" > {net.mtu} payload bytes); split it or shrink ops")
        self.requests_issued += 1
        self.batches_issued += 1
        self.batch_subops_issued += len(sub_ops)
        self._batch_sizes.observe(len(sub_ops))
        read_bytes = sum(sub.size for sub in sub_ops
                         if sub.op is PacketType.READ)
        expected_response_bytes = net.header_bytes + read_bytes
        if timeout_ns is None:
            wire_ns = transmit_time_ns(request_bytes + expected_response_bytes,
                                       net.mn_port_rate_bps)
            # A frame's service time grows with its sub-op count (each
            # sub-op holds the board pipeline, reads the serialized DMA
            # engine), and admitted frames queue behind each other per
            # window slot — so the retransmission budget must scale with
            # frame size or deep batches spuriously time out and retry.
            timeout_ns = (clib.timeout_ns
                          + clib.timeout_ns * (len(sub_ops) - 1) // 4
                          + 8 * wire_ns)

        def emit(request_id: int, retry_of: Optional[int]) -> None:
            self._emit_batch(mn, request_id, pid, sub_ops, request_bytes,
                             retry_of)

        outcome = yield from self._transact(
            mn, PacketType.BATCH, emit, expected_response_bytes, timeout_ns,
            sub_ops[0].va, (pid, len(sub_ops)), len(sub_ops))
        self.batch_subops_completed += len(sub_ops)
        return BatchOutcome(statuses=tuple(outcome.body.value),
                            data=outcome.data or b"",
                            rtt_ns=outcome.rtt_ns, retries=outcome.retries,
                            request_id=outcome.request_id)

    def _transact(self, mn: str, packet_type: PacketType, emit,
                  expected_response_bytes: int, timeout_ns: int,
                  va: int, trace_values: tuple, rtt_scale: int = 1):
        """Shared retry state machine behind request()/request_batch().

        ``rtt_scale`` normalizes the RTT sample fed to congestion
        control: a frame of N sub-ops legitimately takes ~N times one
        op's service time, so its ack reports the *per-sub-op* pace —
        otherwise every deep batch reads as queueing delay and the
        window collapses to its floor.
        """
        clib = self.params.clib
        congestion = self.congestion(mn)
        original_id: Optional[int] = None
        retries = 0
        tracer = self.tracer
        request_span = None
        if tracer is not None:
            request_row, settled_row = self._trace_rows[
                packet_type._value_, mn]
            request_span = tracer.open(request_row, trace_values)
            # An attempt starts when send() below runs.
            send_delay = clib.request_overhead_ns // 2

        for attempt in range(clib.max_retries + 1):
            # Uncontended fast path: skip the admission generator entirely.
            now = self.env.now
            if not (congestion.can_send(now,
                                        self._last_send.get(mn, -(10 ** 12)))
                    and self._incast.can_send(expected_response_bytes)):
                yield from self._admit(mn, expected_response_bytes)
                now = self.env.now
            request_id = next(_request_ids)
            if original_id is None:
                original_id = request_id
            retry_of = original_id if attempt > 0 else None
            state = _Pending(self.env.event(), now, request_id, congestion,
                             expected_response_bytes, rtt_scale)
            self._pending[request_id] = state

            # Claim the window slot *synchronously* with admission — any
            # later claim would let concurrent senders overrun the window.
            congestion.on_send()
            self._incast.on_send(expected_response_bytes)
            self._last_send[mn] = now

            # Exponential backoff: each retry doubles the TIMEOUT, so a
            # transient incast queue drains instead of being re-fed.  The
            # TIMEOUT is a scheduled callback that triggers ``state.done``
            # itself — no per-attempt Timeout event or condition to race.
            attempt_timeout = min(timeout_ns << attempt, clib.slow_timeout_ns)
            if attempt_timeout < timeout_ns:
                # The ceiling never cuts below the request's own first
                # budget: a transfer whose wire time alone outlasts
                # ``slow_timeout_ns`` still gets attempts it can finish in.
                attempt_timeout = timeout_ns

            def send() -> None:
                # Kernel-bypass raw Ethernet send, then arm the TIMEOUT.
                emit(request_id, retry_of)
                self.env.schedule_callback(attempt_timeout, state.expire)

            # CLib processing cost first.  Nothing can answer an ID that
            # has not left yet, so the send is a callback; an ack is the
            # lane (_ack), which resumes the caller chain after the
            # completion overhead: one resume per attempt.
            self.env.schedule_callback(clib.request_overhead_ns // 2, send)
            yield state.done

            if not state.timed_out and not state.nacked and not state.corrupted:
                rtt = state.rtt
                body, response_data = self._assemble(state)
                # The stale TIMEOUT entry keeps ``state`` alive until it
                # pops (100 ms for slow types): let the packets go now.
                state.fragments.clear()
                self.requests_completed += 1
                self.total_retries += retries
                if tracer is not None:
                    sent = state.sent_at + send_delay
                    acked = state.sent_at + rtt
                    if retries:
                        tracer.complete(
                            self._attempt_sites[packet_type._value_], sent,
                            acked, request_id, mn, retry_of, "ok")
                        tracer.end(request_span, self._end_ok, "ok", retries,
                                   request_id, rtt)
                    else:
                        tracer.stamp(settled_row(
                            sent, acked, request_id, request_span or 0,
                            self.env.now, rtt))
                return RequestOutcome(body, response_data, rtt, retries,
                                      request_id)

            # NACK, corrupted response, or TIMEOUT: retry with a fresh ID.
            self._incast.on_complete(expected_response_bytes)
            now = self.env.now
            if state.nacked:
                last_reason = "nack"
            elif state.corrupted:
                last_reason = "corrupted response"
            else:
                last_reason = "timeout"
            if tracer is not None:
                tracer.complete(self._attempt_sites[packet_type._value_],
                                state.sent_at + send_delay, now,
                                request_id, mn, retry_of, last_reason)
            if not state.timed_out:
                late_rtt = now - state.sent_at
                congestion.on_ack(late_rtt // rtt_scale
                                  if rtt_scale > 1 else late_rtt)
            else:
                congestion.on_timeout()
            self._wake_senders()
            del self._pending[request_id]
            state.fragments.clear()
            if attempt < clib.max_retries:
                retries += 1   # another attempt will actually be sent

        self.total_retries += retries
        self.requests_failed += 1
        if tracer is not None:
            tracer.end(request_span, self._end_failed, "failed", retries,
                       last_reason)
        raise RequestFailed(mn, packet_type, va, attempts=retries + 1,
                            reason=last_reason)

    @staticmethod
    def _assemble(state: _Pending) -> tuple[Any, Optional[bytes]]:
        """Reassemble response fragments into (body, read payload)."""
        first = state.fragments.get(0)
        body = first.payload if first is not None else None
        if state.expected_fragments == 1:
            data = body.data if body is not None else None
            return body, data
        parts = []
        for index in range(state.expected_fragments):
            fragment_body = state.fragments[index].payload
            if fragment_body.data is not None:
                parts.append(fragment_body.data)
        return body, b"".join(parts)
