"""The memory node's wire protocol, written once for every board.

Everything a CN can observe of an MN lives here: the thin netstack
(alive check, NACK for corrupt arrivals), the fence barrier, MAT
dispatch, retry dedup and replay (section 4.5), multi-fragment write
countdown, fragmenting responses and header stamping.  A board is a
:class:`Board` plus a memory model, reached only through the objects
:class:`repro.core.cboard.CBoard` composes — each call but the first a
process-generator:

* ``fast_path.serve(pid, access, va, size, data, wire_bytes,
  serialize_dma, done)`` runs a request through the pipeline and calls
  ``done(result)`` when it ends, with ``status``, ``data`` and
  ``breakdown``; a one-page access whose TLB hits runs no generator.
  Every READ and WRITE packet takes it from :meth:`Board.receive`, and
  its ``done`` is the board's answer, :meth:`Board._respond` or
  :meth:`Board._count_down`: no handler generator runs for either.  An
  ATOMIC takes it too, and is only translated: its ``result.pa`` is the
  word the atomic unit then accesses;
* ``fast_path.execute(pid, access, va, size, data=, wire_bytes=)``
  returns that result (a batch's sub-ops run it);
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

from dataclasses import dataclass, field
from functools import partial
from typing import Any, Optional

from repro.core.addr import AccessType
from repro.core.mat import PATHS, Path
from repro.core.pipeline import Breakdown, Status
from repro.core.retry_buffer import RetryBuffer
from repro.core.sync import ATOMIC_WIDTH, AtomicResult
from repro.net.packet import ClioHeader, Packet, PacketType, fragment_payload
from repro.params import ClioParams
from repro.sim import Environment, Event

#: Members the handler chain tests, bound once: on CPython 3.11 every
#: ``Enum.X`` load takes ``EnumType.__getattr__``'s slow hook.
_OK, _RESPONSE = Status.OK, PacketType.RESPONSE
_READ, _WRITE, _FENCE = PacketType.READ, PacketType.WRITE, PacketType.FENCE
_ATOMIC, _BATCH = PacketType.ATOMIC, PacketType.BATCH
_ALLOC, _FREE = PacketType.ALLOC, PacketType.FREE
_READ_ACCESS, _WRITE_ACCESS = AccessType.READ, AccessType.WRITE
_ATOMIC_ACCESS = AccessType.ATOMIC

#: The MAT keyed by member name: a ``str`` hashes in C, while a lookup by
#: member runs ``Enum.__hash__`` (and ``hash``) on every packet.
_PATH_OF = {kind._name_: path for kind, path in PATHS.items()}


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

    An entry goes when its last fragment is served, or, for a request
    that lost or corrupted a fragment, once it is ``slow_timeout_ns``
    older than a new entry: by then the CN has retried or failed that
    attempt (:meth:`Board._progress`).
    """

    remaining: int
    born: int
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

        # Fence state: all future requests block until in-flight ones
        # drain; the one fence waiting for that waits on ``_drain``.
        self._inflight = 0
        self._fence_barrier = None
        self._drain: Optional[Event] = None

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

    def receive(self, packet: Packet, arrived: Optional[int] = None) -> None:
        """The port: every request starts here, and one a fence held back
        comes back here when the fence is answered, with the time it
        ``arrived``.  A READ or WRITE goes straight to the fast path as
        callbacks: a READ or a one-packet first attempt ends in
        :meth:`_respond`, a write fragment or a retry in
        :meth:`_count_down`.  Other types run a handler (:meth:`_handle`)."""
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
        # The one fence wait: a request arriving while a fence drains,
        # another FENCE too, parks on its barrier and is back here when it
        # fires, in arrival order.  A crash drops the barrier unfired, so
        # what parked on it is lost.
        start = self.env.now if arrived is None else arrived
        barrier = self._fence_barrier
        if barrier is not None:
            barrier.callbacks.append(partial(self._release, packet, start))
            return
        header = packet.header
        kind = header.packet_type
        # The two data types are tested by identity, before the MAT.
        if kind is _READ or kind is _WRITE:
            if header.size <= 0:
                raise ValueError(f"size must be positive, got {header.size}")
            self._inflight += 1
            if kind is _READ or (header.retry_of is None
                                 and header.fragments == 1):
                done = partial(self._respond, header, self._epoch, arrived)
            else:
                done = partial(self._count_down, header, self._epoch, start,
                               self._write_progress.get(header.request_id)
                               or self._progress(header))
                if self.retry_buffer.check(header.retry_of)[0]:
                    # A retried write whose original already executed must
                    # not run again — re-executing could undo a newer
                    # write (section 4.5).
                    self.env.schedule_callback(self._netstack_ns,
                                               partial(done, None))
                    return
            self.fast_path.serve(
                header.pid, _READ_ACCESS if kind is _READ else _WRITE_ACCESS,
                header.va, header.size, packet.payload, packet.wire_bytes,
                True, done)
            return
        # MAT dispatch: the request type picks the path; a type the board
        # does not serve is dropped.
        path = _PATH_OF.get(kind._name_)
        if path is None:
            return
        # Nobody waits on a handler and this is the delivery event's last
        # act, so it starts inline: no Initialize, no completion event.
        self.env.spawn(self._handle(packet, path, self._epoch, start))

    def _release(self, packet: Packet, arrived: int, _barrier: Event) -> None:
        """A request the fence held back, at the port again as the fence's
        barrier fires: a board that crashed since drops it there."""
        self.receive(packet, arrived)

    def _respond(self, header: ClioHeader, epoch: int,
                 arrived: Optional[int], result) -> None:
        """The end of a READ or a one-packet first-attempt WRITE: answer
        it and leave.  Traced, its ``mn:*`` span, its one traversal and its
        one response are one row; the ``mn:*`` span begins when it
        ``arrived`` if a fence held it back, else when its traversal did."""
        kind = header.packet_type
        tracer = self.tracer
        discarded = epoch != self._epoch
        # A discarded request sends no response, a read whose data spans
        # fragments sends several, and a fenced request's span is longer
        # than its traversal's: theirs are not one row, and the
        # traversal's comes first.
        apart = tracer is not None and (
            discarded or arrived is not None or kind is _READ and (
                result.status is _OK and header.size > self._mtu))
        if apart:
            self.fast_path.trace(kind._value_, result)
        self._reply(header, epoch, result, apart)
        self._leave(epoch)
        if tracer is not None:
            now = self.env.now
            breakdown = result.breakdown
            start = now - breakdown.total_ns
            if apart:
                tracer.complete(self._handler_sites[kind._value_],
                                start if arrived is None else arrived, now,
                                header.request_id, header.src, discarded)
            else:
                # Rows keyed by value: a lookup hashes no enum member.
                tracer.stamp(self._served_rows[
                    kind._value_, header.src, result.status._value_](
                        start, now, header.request_id, breakdown.ingest_ns,
                        breakdown.pipeline_ns, breakdown.tlb_miss_ns,
                        breakdown.fault_ns, breakdown.dram_ns))

    def _send_nack(self, header: ClioHeader, epoch: int) -> None:
        # A crash since the corrupt packet arrived discards the NACK.
        if epoch == self._epoch:
            self.nacks_sent += 1
        self._send(header.src, header.request_id, PacketType.NACK,
                   ResponseBody(status=Status.OK), epoch=epoch)

    def _leave(self, epoch: int, counted: bool = True) -> None:
        """A request is done with the board: if it ``counted`` as in
        flight it leaves the count, and the last one out lets a waiting
        fence through; then the verifier checks the board.  A crash zeroed
        the count, so a pre-crash request does neither."""
        if epoch != self._epoch:
            return
        if counted:
            self._inflight -= 1
            if self._inflight == 0 and self._drain is not None:
                drain, self._drain = self._drain, None
                drain.succeed()
        if self.verifier is not None:
            self.verifier.on_board_request(self)

    def _handle(self, packet: Packet, path: Path, epoch: int, start: int):
        """Serve a FENCE, ATOMIC, BATCH, ALLOC, FREE or OFFLOAD that
        arrived at ``start``; all but a FENCE count as in flight.

        The one replay rule: a retry whose original ran gets the body the
        original was answered with and runs nothing, since running it
        again could undo a newer write or double-apply an atomic or an
        allocation (section 4.5)."""
        header = packet.header
        kind = header.packet_type
        tracer = self.tracer
        counted = kind is not _FENCE
        if counted:
            self._inflight += 1
        replay = self.retry_buffer.check(header.retry_of)[1]
        try:
            if replay is not None:
                self._send_body(header, replay, epoch)
            elif not counted:
                yield from self._handle_fence(packet, epoch)
            elif kind is _ATOMIC:
                yield from self._handle_atomic(packet, epoch)
            elif kind is _BATCH:
                yield from self._handle_batch(packet, epoch)
            elif kind is _ALLOC:
                size, permission, fixed_va = packet.payload
                yield from self._handle_once(
                    header, epoch, self.slow_path.handle_alloc(
                        header.pid, size, permission=permission,
                        fixed_va=fixed_va))
            elif kind is _FREE:
                yield from self._handle_once(
                    header, epoch, self.slow_path.handle_free(
                        header.pid, header.va))
            elif path is Path.EXTEND:
                name, args = packet.payload
                yield from self._handle_once(
                    header, epoch, self.extend_path.invoke(
                        name, args, caller_pid=header.pid))
        finally:
            self._leave(epoch, counted)
            if tracer is not None:
                tracer.complete(self._handler_sites[kind._value_], start,
                                self.env.now, header.request_id, header.src,
                                epoch != self._epoch)

    # -- fast path: responses and the fragment countdown --------------------------

    def _reply(self, header: ClioHeader, epoch: int, result,
               traced: bool) -> None:
        """Count a served read or one-packet write and send its response,
        a read's data in fragments of at most the MTU.  A crash since the
        request arrived discards it."""
        if epoch != self._epoch:
            self.responses_discarded += 1
            return
        self.requests_served += 1
        status = result.status
        if status is _OK:
            self.bytes_served += header.size
            if header.packet_type is _WRITE:
                self._remember(header)
        if header.packet_type is _WRITE or status is not _OK:
            data, size = None, 0
        elif header.size <= self._mtu:
            # One packet, built directly: no fragment list to walk.
            data, size = result.data[:header.size], header.size
        else:
            self._send_body(header, ResponseBody(
                _OK, result.data, None, None, result.breakdown),
                traced=traced)
            return
        self._send(header.src, header.request_id, _RESPONSE,
                   ResponseBody(status, data, None, None, result.breakdown),
                   payload_bytes=size, traced=traced)

    def _progress(self, header: ClioHeader) -> _WriteProgress:
        """A new countdown for the write whose first packet ``header``
        is: a fragment or a retry."""
        # Entries are in arrival order.  One older than the CN's longest
        # timeout lost a fragment, and its attempt was retried or failed
        # since: nothing will complete it.
        pending, now = self._write_progress, self.env.now
        stale = now - self.params.clib.slow_timeout_ns
        while pending and next(iter(pending.values())).born < stale:
            del pending[next(iter(pending))]
        pending[header.request_id] = progress = _WriteProgress(
            header.fragments, now)
        return progress

    def _count_down(self, header: ClioHeader, epoch: int, start: int,
                    progress: _WriteProgress, result) -> None:
        """The end of a write fragment or retry that arrived at ``start``:
        its traversal's ``result``, or None for a retry whose original ran.
        The last packet of the write acks it once."""
        tracer = self.tracer
        if tracer is not None and result is not None:
            self.fast_path.trace(_WRITE_ACCESS._value_, result)
        if epoch != self._epoch:
            # Crash wiped _write_progress; this fragment's work is lost.
            self.responses_discarded += 1
        else:
            if result is not None:
                progress.breakdown.merge(result.breakdown)
                if result.status is not _OK:
                    progress.status = result.status
                else:
                    self.bytes_served += header.size
            progress.remaining -= 1
            if progress.remaining == 0:
                # Whole request done: remember it for retry dedup, ack once.
                self._write_progress.pop(header.request_id, None)
                self.requests_served += 1
                if progress.status is _OK:
                    self._remember(header)
                self._send(header.src, header.request_id, _RESPONSE,
                           ResponseBody(progress.status, None, None, None,
                                        progress.breakdown))
        self._leave(epoch)
        if tracer is not None:
            tracer.complete(self._handler_sites[_WRITE._value_], start,
                            self.env.now, header.request_id, header.src,
                            epoch != self._epoch)

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
        body = ResponseBody(next((s for s in statuses if s is not _OK), _OK),
                            b"".join(parts), statuses)
        if contains_write:
            # Read-only frames are idempotent and re-execute freely on
            # retry; remembering only write-bearing frames keeps the
            # bounded dedup ring small, exactly like single WRITEs.
            self._remember(header, body)
        self._send_body(header, body, epoch)

    def _handle_atomic(self, packet: Packet, epoch: int):
        """Translate the word through the fast path, then read-modify-write
        it in the atomic unit.  A word not aligned to its width is refused
        first: across a page boundary it would reach into whatever
        physical page follows."""
        header = packet.header
        if header.va % ATOMIC_WIDTH:
            self._send(header.src, header.request_id, _RESPONSE,
                       ResponseBody(Status.INVALID_VA), epoch=epoch)
            return
        gate = Event(self.env)
        self.fast_path.serve(header.pid, _ATOMIC_ACCESS, header.va,
                             ATOMIC_WIDTH, None, packet.wire_bytes, False,
                             gate.resume_waiters)
        translated = yield gate
        if translated.status is not _OK or epoch != self._epoch:
            # _send discards a response from before a crash.
            self._send(header.src, header.request_id, _RESPONSE,
                       ResponseBody(translated.status), epoch=epoch)
            return
        result = yield from self.atomic_unit.execute(translated.pa,
                                                     packet.payload)
        if epoch != self._epoch:
            self.responses_discarded += 1
            return
        self.requests_served += 1
        body = ResponseBody(_OK, None, None, result)
        self._remember(header, body)
        self._send(header.src, header.request_id, _RESPONSE, body,
                   epoch=epoch)

    def _handle_fence(self, packet: Packet, epoch: int):
        """Hold every later request at the port (:meth:`receive`) until
        those in flight drain, then answer and let them through."""
        header = packet.header
        barrier = self._fence_barrier = self.env.event()
        if self._inflight > 0:
            self._drain = self.env.event()
            yield self._drain
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
        process-generator) executes, and its answer is remembered for a
        retry to replay (:meth:`_handle`)."""
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

    def _send_body(self, header: ClioHeader, body: ResponseBody,
                   epoch: Optional[int] = None, traced: bool = True) -> None:
        """Answer ``header`` with ``body``, whose data may exceed the MTU:
        every fragment carries the status, and the first alone the value,
        atomic result and breakdown."""
        data = body.data
        size = 0 if data is None else len(data)
        if size <= self._mtu:
            self._send(header.src, header.request_id, _RESPONSE, body,
                       payload_bytes=size, epoch=epoch, traced=traced)
            return
        fragments = fragment_payload(size, self._mtu)
        first = body.value, body.atomic, body.breakdown
        for index, (offset, length) in enumerate(fragments):
            self._send(header.src, header.request_id, _RESPONSE,
                       ResponseBody(body.status, data[offset:offset + length],
                                    *first),
                       index, len(fragments), length, size, epoch, traced)
            first = None, None, None

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
