"""The memory node's wire protocol, written once for every board.

Everything a CN can observe of an MN lives here: the thin netstack
(alive check, NACK for corrupt arrivals), MAT dispatch, the fence
barrier, retry dedup and replay (section 4.5), multi-fragment write
countdown, fragmenting read responses and header stamping.  A board is a
:class:`Board` plus a memory model, reached only through the objects
:class:`repro.core.cboard.CBoard` composes — each call a process-generator:

* ``fast_path.execute(pid, access, va, size, data=, wire_bytes=, traced=)``
  returns a result with ``status``, ``data`` and ``breakdown``;
* ``fast_path.translate_only(pid, access, va, wire_bytes)`` charges the
  request's fixed cost and returns ``(status, pa)``;
* ``atomic_unit.execute(pa, op)`` returns an ``AtomicResult``;
* ``slow_path.handle_alloc(pid, size, permission=, fixed_va=)`` and
  ``slow_path.handle_free(pid, va)`` return an ``AllocResponse`` /
  ``FreeResponse``;
* ``extend_path.invoke(name, args, caller_pid=)`` returns an
  ``OffloadResult``.

CBoard answers them with the hardware pipeline and the ARM slow path;
:class:`repro.core.simboard.SimBoard` with a flat software map.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Optional

from repro.core.addr import AccessType
from repro.core.mat import PATHS, Path
from repro.core.pipeline import Breakdown, Status
from repro.core.retry_buffer import RetryBuffer
from repro.core.sync import AtomicOp, AtomicResult
from repro.net.packet import ClioHeader, Packet, PacketType, fragment_payload
from repro.params import ClioParams
from repro.sim import Environment

#: Members the handler chain tests, bound once: on CPython 3.11 every
#: ``Enum.X`` load takes ``EnumType.__getattr__``'s slow hook.
_FAST, _SLOW, _OK = Path.FAST, Path.SLOW, Status.OK
_READ, _WRITE, _FENCE = PacketType.READ, PacketType.WRITE, PacketType.FENCE
_ALLOC, _FREE = PacketType.ALLOC, PacketType.FREE
_RESPONSE = PacketType.RESPONSE
_READ_ACCESS, _WRITE_ACCESS = AccessType.READ, AccessType.WRITE


@dataclass(slots=True)
class ResponseBody:
    """Payload of a RESPONSE packet."""

    status: Status
    data: Optional[bytes] = None          # read data fragment
    value: Any = None                      # alloc VA / offload result
    atomic: Optional[AtomicResult] = None
    breakdown: Optional[Breakdown] = None  # instrumentation (not on wire)


@dataclass(slots=True)
class _WriteProgress:
    """Per-request fragment countdown for multi-packet writes.

    Bounded: entries live only while a request's fragments are in the
    pipeline, and they are dropped as soon as the response is generated.
    """

    remaining: int
    status: Status = Status.OK
    breakdown: Breakdown = field(default_factory=Breakdown)


class Board:
    """One memory node's port: the packet protocol over a memory model."""

    def __init__(self, env: Environment, params: ClioParams, name: str,
                 netstack_ns: int):
        self.env = env
        self.params = params
        self.name = name
        self.retry_buffer = RetryBuffer(params.cboard.retry_buffer_bytes)
        self.topology = None
        self._write_progress: dict[int, _WriteProgress] = {}

        # Failure model.  ``_epoch`` tags every in-flight handler; a board
        # that crashes bumps it, and responses from a pre-crash epoch are
        # discarded.
        self.alive = True
        self._epoch = 0

        self._netstack_ns = netstack_ns
        self._mtu = params.network.mtu

        # Fence state: all future requests block until in-flight ones drain.
        self._inflight = 0
        self._fence_barrier = None
        self._drain_events: deque = deque()

        self.requests_served = 0
        self.batch_subops_served = 0
        self.nacks_sent = 0
        self.bytes_served = 0
        self.packets_dropped_dead = 0      # packets arriving while crashed
        self.responses_discarded = 0       # in-flight work killed by a crash

        # The tracer is None unless the cluster enables span tracing.
        self.tracer = None
        # Runtime correctness checking (repro.verify); None = disabled.
        self.verifier = None

    # -- wiring -------------------------------------------------------------------

    def attach(self, topology) -> None:
        """Connect the board's Ethernet port to the ToR switch."""
        self.topology = topology
        topology.add_node(self.name, self.receive,
                          port_rate_bps=self.params.cboard.port_rate_bps,
                          node_env=self.env)

    # -- network receive (the transportless MN stack) ------------------------------

    def receive(self, packet: Packet) -> None:
        # A crashed board's port is dark: requests die silently here, and
        # the CN's bounded retransmission surfaces RequestFailed.
        if not self.alive:
            self.packets_dropped_dead += 1
            return
        # Thin netstack: integrity check; corrupt packets get an immediate
        # NACK after the netstack delay — a pure-delay path, so it uses a
        # scheduled callback instead of a generator process.
        if packet.corrupt:
            self.env.schedule_callback(
                self._netstack_ns,
                partial(self._send_nack, packet.header, self._epoch))
            return
        # MAT dispatch: the request type picks the path; a type the board
        # does not serve is dropped.
        path = PATHS.get(packet.header.packet_type)
        if path is None:
            return
        # Nobody waits on a handler and this is the delivery event's last
        # act, so it starts inline: no Initialize, no completion event.
        self.env.spawn(self._handle(packet, path, self._epoch))

    def _send_nack(self, header: ClioHeader, epoch: Optional[int] = None) -> None:
        if epoch is not None and epoch != self._epoch:
            self.responses_discarded += 1
            return
        self.nacks_sent += 1
        self._send(header.src, header.request_id, PacketType.NACK,
                   ResponseBody(status=Status.OK), epoch=epoch)

    def _handle(self, packet: Packet, path: Path, epoch: int):
        header = packet.header
        tracer = self.tracer
        start = self.env.now
        # One packet in, one traversal, one packet out: the read or write
        # handler leaves the traversal and the response unrecorded and
        # returns the former, and this handler's span shares their row.
        lean = (tracer is not None and header.fragments == 1
                and header.size <= self._mtu)
        served = None
        try:
            # Fence barrier: anything arriving after a fence waits for the
            # drain.  (A crash resets the barrier without firing it, so
            # pre-crash waiters park here forever — their responses are
            # lost anyway.)
            while self._fence_barrier is not None and header.packet_type is not _FENCE:
                yield self._fence_barrier

            if header.packet_type is _FENCE:
                yield from self._handle_fence(packet, epoch)
                return

            self._inflight += 1
            try:
                if path is _FAST:
                    if header.packet_type is _READ:
                        served = yield from self._handle_read(packet, epoch,
                                                              lean)
                    elif header.packet_type is _WRITE:
                        served = yield from self._handle_write(packet, epoch,
                                                               lean)
                    elif header.packet_type is PacketType.ATOMIC:
                        yield from self._handle_atomic(packet, epoch)
                    elif header.packet_type is PacketType.BATCH:
                        yield from self._handle_batch(packet, epoch)
                elif path is _SLOW:
                    if header.packet_type is _ALLOC:
                        size, permission, fixed_va = packet.payload
                        yield from self._handle_once(
                            header, epoch, self.slow_path.handle_alloc(
                                header.pid, size, permission=permission,
                                fixed_va=fixed_va))
                    elif header.packet_type is _FREE:
                        yield from self._handle_once(
                            header, epoch, self.slow_path.handle_free(
                                header.pid, header.va))
                elif path is Path.EXTEND:
                    name, args = packet.payload
                    yield from self._handle_once(
                        header, epoch, self.extend_path.invoke(
                            name, args, caller_pid=header.pid))
            finally:
                # A crash zeroed the in-flight count; a pre-crash handler
                # must not decrement the new epoch's bookkeeping on its
                # way out.
                if epoch == self._epoch:
                    self._inflight -= 1
                    if self._inflight == 0:
                        while self._drain_events:
                            self._drain_events.popleft().succeed()
        finally:
            if self.verifier is not None and epoch == self._epoch:
                self.verifier.on_board_request(self)
            if tracer is not None:
                now = self.env.now
                if not lean or served is None:
                    tracer.complete(self._handler_sites[header.packet_type],
                                    start, now, header.request_id, header.src,
                                    epoch != self._epoch)
                else:
                    tracer.record(
                        self._served_sites[header.packet_type, header.src,
                                           served.status],
                        start, now, header.request_id,
                        now - served.breakdown.total_ns, now,
                        *served.breakdown.stages(), now, header.request_id)

    # -- fast path handlers -----------------------------------------------------------

    def _handle_read(self, packet: Packet, epoch: int, lean: bool):
        header = packet.header
        result = yield from self.fast_path.execute(
            header.pid, _READ_ACCESS, header.va, header.size,
            wire_bytes=packet.wire_bytes, traced=not lean)
        if epoch != self._epoch:
            self.responses_discarded += 1
            if lean:        # no response to share a row with
                self.fast_path.trace(_READ_ACCESS, result)
            return
        self.requests_served += 1
        if result.status is not _OK:
            self._send(header.src, header.request_id, _RESPONSE,
                       ResponseBody(result.status, None, None, None,
                                    result.breakdown), epoch=epoch,
                       traced=not lean)
            return result
        self.bytes_served += header.size
        # Read responses larger than MTU go back as independent fragments.
        fragments = fragment_payload(header.size, self._mtu)
        for index, (offset, size) in enumerate(fragments):
            body = ResponseBody(_OK, result.data[offset:offset + size], None,
                                None, result.breakdown if index == 0 else None)
            self._send(header.src, header.request_id, _RESPONSE,
                       body, fragment=index, fragments=len(fragments),
                       payload_bytes=size, total_size=header.size,
                       epoch=epoch, traced=not lean)
        return result

    def _handle_write(self, packet: Packet, epoch: int, lean: bool):
        header = packet.header
        progress = self._write_progress.get(header.request_id)
        if progress is None:
            progress = _WriteProgress(header.fragments)
            self._write_progress[header.request_id] = progress

        executed, _cached = self.retry_buffer.check(header.retry_of)
        result = None
        if executed:
            # A retried write whose original already executed must not run
            # again — re-executing could undo a newer write (section 4.5).
            yield self.env.timeout(self._netstack_ns)
        else:
            result = yield from self.fast_path.execute(
                header.pid, _WRITE_ACCESS, header.va, header.size,
                data=packet.payload, wire_bytes=packet.wire_bytes,
                traced=not lean)
        if epoch != self._epoch:
            # Crash wiped _write_progress; this fragment's work is lost.
            self.responses_discarded += 1
            if lean and result is not None:
                self.fast_path.trace(_WRITE_ACCESS, result)
            return
        if result is not None:
            progress.breakdown.merge(result.breakdown)
            if result.status is not _OK:
                progress.status = result.status
            else:
                self.bytes_served += header.size

        progress.remaining -= 1
        if progress.remaining > 0:
            return result
        # Whole request done: remember it for retry dedup, ack once.
        del self._write_progress[header.request_id]
        self.requests_served += 1
        if progress.status is _OK:
            self._remember(header)
        self._send(header.src, header.request_id, _RESPONSE,
                   ResponseBody(progress.status, None, None, None,
                                progress.breakdown), epoch=epoch,
                   traced=result is None or not lean)
        return result

    def _handle_batch(self, packet: Packet, epoch: int):
        """Unroll a multi-op frame through the fast path at II=1 per sub-op.

        Each sub-op pays exactly the per-request pipeline cost — one
        ingest slot sized by its own descriptor (+ write payload), one
        TLB/page-table access — and nothing batch-wide can stall the
        whole frame: a rejected sub-op records its status and the next
        sub-op proceeds.  One response acks the frame, carrying the
        per-sub-op status vector and the concatenated read data.
        """
        header = packet.header
        executed, cached = self.retry_buffer.check(header.retry_of)
        if executed and cached is not None:
            # A retried frame containing writes must not re-execute
            # (section 4.5); replay the remembered status vector + data.
            statuses, blob = cached
            self._send_batch_response(header, statuses, blob, epoch)
            return
        subop_header = self.params.network.subop_header_bytes
        # Unroll the frame *pipelined*: every sub-op enters the fast path
        # as its own in-flight request, in frame order.  The pipeline's
        # own bookkeeping serializes them where hardware would — the
        # one-flit-per-cycle ingest (II=1) and the read DMA setup — so a
        # slow sub-op (TLB miss, fault) stalls only itself, never the
        # frame.  Spawn order fixes ingest order, keeping runs
        # deterministic.
        procs = []
        contains_write = False
        for sub in packet.payload:
            if sub.op is PacketType.WRITE:
                contains_write = True
                procs.append(self.env.process(self.fast_path.execute(
                    header.pid, AccessType.WRITE, sub.va, sub.size,
                    data=sub.data, wire_bytes=subop_header + sub.size)))
            else:
                procs.append(self.env.process(self.fast_path.execute(
                    header.pid, AccessType.READ, sub.va, sub.size,
                    wire_bytes=subop_header)))
        results = []
        for proc in procs:
            results.append((yield proc))
        if epoch != self._epoch:
            # Crash mid-frame: the partial response never reaches the wire.
            self.responses_discarded += 1
            return
        statuses = []
        parts = []
        for sub, result in zip(packet.payload, results):
            statuses.append(result.status)
            if result.status is Status.OK:
                self.batch_subops_served += 1
                self.bytes_served += sub.size
                if sub.op is PacketType.READ:
                    parts.append(result.data)
        self.requests_served += 1
        statuses = tuple(statuses)
        blob = b"".join(parts)
        if contains_write:
            # Read-only frames are idempotent and re-execute freely on
            # retry; remembering only write-bearing frames keeps the
            # bounded dedup ring small, exactly like single WRITEs.
            self._remember(header, (statuses, blob))
        self._send_batch_response(header, statuses, blob, epoch)

    def _send_batch_response(self, header: ClioHeader, statuses, blob: bytes,
                             epoch: int) -> None:
        """Ack a frame: status vector on fragment 0, read data fragmented."""
        fragments = fragment_payload(len(blob), self._mtu)
        count = len(fragments)
        for index, (offset, size) in enumerate(fragments):
            body = ResponseBody(
                status=next((s for s in statuses if s is not Status.OK),
                            Status.OK),
                value=statuses if index == 0 else None,
                data=blob[offset:offset + size])
            self._send(header.src, header.request_id, PacketType.RESPONSE,
                       body, fragment=index, fragments=count,
                       payload_bytes=size, total_size=len(blob), epoch=epoch)

    def _handle_atomic(self, packet: Packet, epoch: int):
        header = packet.header
        op: AtomicOp = packet.payload
        executed, cached = self.retry_buffer.check(header.retry_of)
        if executed:
            self._send(header.src, header.request_id, PacketType.RESPONSE,
                       ResponseBody(status=Status.OK, atomic=cached),
                       epoch=epoch)
            return
        status, pa = yield from self.fast_path.translate_only(
            header.pid, AccessType.ATOMIC, header.va, packet.wire_bytes)
        if epoch != self._epoch:
            self.responses_discarded += 1
            return
        if status is not Status.OK:
            self._send(header.src, header.request_id, PacketType.RESPONSE,
                       ResponseBody(status=status), epoch=epoch)
            return
        result = yield from self.atomic_unit.execute(pa, op)
        if epoch != self._epoch:
            self.responses_discarded += 1
            return
        self.requests_served += 1
        self._remember(header, result)
        self._send(header.src, header.request_id, PacketType.RESPONSE,
                   ResponseBody(status=Status.OK, atomic=result), epoch=epoch)

    def _handle_fence(self, packet: Packet, epoch: int):
        header = packet.header
        # Chain behind any fence already draining.
        while self._fence_barrier is not None:
            yield self._fence_barrier
            if epoch != self._epoch:
                self.responses_discarded += 1
                return
        barrier = self.env.event()
        self._fence_barrier = barrier
        while self._inflight > 0:
            drain = self.env.event()
            self._drain_events.append(drain)
            yield drain
            if epoch != self._epoch:
                # Crash reset the barrier; ours must not resurface.
                self.responses_discarded += 1
                return
        self.requests_served += 1
        self._send(header.src, header.request_id, PacketType.RESPONSE,
                   ResponseBody(status=Status.OK), epoch=epoch)
        self._fence_barrier = None
        barrier.succeed()

    # -- slow and extend path: once-only requests ------------------------------------

    def _remember(self, header: ClioHeader, outcome=None) -> None:
        """Record an executed request under its own id and, for a retry,
        the original's: whichever attempt is retried next finds it."""
        self.retry_buffer.remember(header.request_id, outcome)
        if header.retry_of is not None:
            self.retry_buffer.remember(header.retry_of, outcome)

    def _handle_once(self, header: ClioHeader, epoch: int, run):
        """Serve an alloc, free or offload: ``run`` (its not-yet-started
        process-generator) executes at most once per request.

        Re-executing a retry of one that already ran would double-allocate
        or double-apply side effects, so it gets the same dedup treatment
        as writes/atomics: the remembered response is replayed instead.
        """
        executed, cached = self.retry_buffer.check(header.retry_of)
        if executed and isinstance(cached, ResponseBody):
            self._send(header.src, header.request_id, _RESPONSE,
                       cached, epoch=epoch)
            return
        outcome = yield from run
        if epoch != self._epoch:
            # Page-table updates survive the crash (durable state), but the
            # response and the retry-dedup record are lost with the epoch.
            self.responses_discarded += 1
            return
        self.requests_served += 1
        body = ResponseBody(_OK if outcome.ok else Status.INVALID_VA, None,
                            outcome)
        self._remember(header, body)
        self._send(header.src, header.request_id, _RESPONSE, body,
                   epoch=epoch)

    # -- response generation -----------------------------------------------------------

    def _send(self, dst: str, request_id: int, packet_type: PacketType,
              body: ResponseBody, fragment: int = 0, fragments: int = 1,
              payload_bytes: int = 0, total_size: int = 0,
              epoch: Optional[int] = None, traced: bool = True) -> None:
        if epoch is not None and epoch != self._epoch:
            # Response authored before a crash: the pipeline that produced
            # it lost power, so the packet never makes it to the wire.
            self.responses_discarded += 1
            return
        if self.tracer is not None and traced:
            self.tracer.instant(self._response_site, request_id,
                                packet_type.value, dst)
        if self.topology is None:
            return  # locally-driven board (on-board benchmarks): no network
        header = ClioHeader(self.name, dst, request_id, packet_type, 0, 0,
                            payload_bytes, total_size or payload_bytes,
                            fragment, fragments)
        wire = self.params.network.header_bytes + payload_bytes
        self.topology.send(Packet(header, body, wire, False, self.env.now))
