"""CBoard: the complete memory-node device (paper Figure 3).

An incoming packet crosses the thin MN network stack (integrity check +
ack generation only — the MN is "transportless"), then a Match-and-Action
Table routes it:

* **fast path** (ASIC): READ/WRITE/ATOMIC/FENCE — the deterministic
  hardware virtual-memory pipeline in :mod:`repro.core.pipeline`;
* **slow path** (ARM): ALLOC/FREE — metadata operations in
  :mod:`repro.core.slowpath`;
* **extend path** (FPGA/ARM): OFFLOAD — application computation in
  :mod:`repro.core.extend`.

The only two kinds of state the MN keeps beyond the page table are
reproduced here exactly: the bounded retry-dedup ring and the (bounded,
infrequent) synchronization state — fence drain tracking and the single
atomic unit.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Optional

from repro.core.addr import AccessType, PageSpec
from repro.core.extend import ExtendPath
from repro.core.mat import MatchActionTable, Path
from repro.core.memory import DRAM
from repro.core.pa_allocator import ArenaBufferBank, AsyncBuffer, PAAllocator
from repro.core.page_table import HashPageTable
from repro.core.pipeline import Breakdown, FastPath, Status
from repro.core.retry_buffer import RetryBuffer
from repro.core.slowpath import SlowPath
from repro.core.sync import AtomicOp, AtomicResult, AtomicUnit
from repro.core.tlb import TLB
from repro.core.va_allocator import VAAllocator
from repro.net.packet import ClioHeader, Packet, PacketType, fragment_payload
from repro.params import ClioParams
from repro.sim import Environment
from repro.telemetry.metrics import MetricsRegistry, StatsView
from repro.telemetry.spans import COMPLETE, INSTANT, Sites, Tracer


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


class CBoard:
    """One memory node: fast + slow + extend paths over on-board DRAM."""

    def __init__(self, env: Environment, params: ClioParams,
                 name: str = "mn0", dram_capacity: Optional[int] = None,
                 page_size: Optional[int] = None,
                 registry: Optional[MetricsRegistry] = None):
        self.env = env
        self.params = params
        self.name = name
        cb = params.cboard
        self.page_spec = PageSpec(cb.default_page_size if page_size is None
                                  else page_size)
        capacity = cb.dram_capacity if dram_capacity is None else dram_capacity
        physical_pages = capacity // self.page_spec.page_size
        if physical_pages <= 0:
            raise ValueError("DRAM capacity below one page")

        self.dram = DRAM(capacity, cb.dram_access_ns, cb.dram_bandwidth_bps)
        self.page_table = HashPageTable(
            physical_pages, slots_per_bucket=cb.page_table_slots_per_bucket,
            overprovision=cb.page_table_overprovision,
            page_spec=self.page_spec)
        self.tlb = TLB(cb.tlb_entries)
        alloc = params.alloc
        self.pa_allocator = PAAllocator(physical_pages,
                                        strategy=alloc.pa_strategy,
                                        alloc_params=alloc)
        arena_mode = alloc.pa_strategy == "arena"
        # In arena mode each process gets its own async buffer (created
        # lazily at first fault); the shared buffer shrinks to depth 1 so
        # it does not strand hundreds of reserved pages nobody will pop.
        shared_depth = 1 if arena_mode else min(cb.async_buffer_depth,
                                                physical_pages)
        self.async_buffer = AsyncBuffer(
            env, self.pa_allocator, depth=shared_depth,
            refill_ns=cb.arm_pa_alloc_ns)
        self.async_buffer.prefill()
        self.buffer_bank = ArenaBufferBank(
            env, self.pa_allocator,
            depth=min(alloc.arena_buffer_depth, physical_pages),
            refill_ns=cb.arm_pa_alloc_ns) if arena_mode else None
        self.va_allocator = VAAllocator(self.page_table, self.page_spec,
                                        policy=alloc.va_policy)
        self.fast_path = FastPath(env, cb, self.dram, self.page_table,
                                  self.tlb, self.async_buffer, self.page_spec)
        self.fast_path.buffer_bank = self.buffer_bank
        self.slow_path = SlowPath(env, cb, self.va_allocator,
                                  self.pa_allocator, self.tlb, dram=self.dram)
        self.extend_path = ExtendPath(env, cb, self.fast_path, self.slow_path)
        self.atomic_unit = AtomicUnit(env, self.dram)
        self.retry_buffer = RetryBuffer(cb.retry_buffer_bytes)
        self.mat = MatchActionTable()

        self.topology = None
        self._write_progress: dict[int, _WriteProgress] = {}

        # Failure model.  The paper's crash-recovery argument: everything
        # except the page table is volatile and reconstructible, so a crash
        # wipes the TLB, retry buffer, and in-flight pipeline work while the
        # page table (board DRAM) survives.  ``_epoch`` tags every in-flight
        # handler; responses from a pre-crash epoch are discarded.
        self.alive = True
        self._epoch = 0

        # Delay constants, precomputed once (the per-packet int(round())
        # recomputation was measurable on the packet-echo hot path).
        self._netstack_ns = int(round(cb.netstack_cycles * cb.cycle_ns))
        self._pipeline_fixed_ns = cb.pipeline_ns()
        self._mtu = params.network.mtu

        # Fence state: all future requests block until in-flight ones drain.
        self._inflight = 0
        self._fence_barrier = None
        self._drain_events: deque = deque()

        # Counters
        self.requests_served = 0
        self.batch_subops_served = 0
        self.nacks_sent = 0
        self.bytes_served = 0
        self.crashes = 0
        self.restarts = 0
        self.packets_dropped_dead = 0      # packets arriving while crashed
        self.responses_discarded = 0       # in-flight work killed by a crash

        # Telemetry.  Counters above stay plain attributes (the hot path
        # keeps its `+= 1`s); the registry holds function-backed views of
        # them under `cboard.<name>.*`, and stats() reads those views.
        # The tracer is None unless the cluster enables span tracing.
        self.tracer: Optional[Tracer] = None
        self._crash_span = None
        # Runtime correctness checking (repro.verify); None = disabled.
        self.verifier = None
        self.metrics = (registry if registry is not None
                        else MetricsRegistry()).scope(f"cboard.{name}")
        self._register_metrics()

    def _register_metrics(self) -> None:
        m = self.metrics
        self._stats = StatsView({
            "requests_served": m.counter(
                "requests_served", "requests answered with a response",
                fn=lambda: self.requests_served),
            "bytes_served": m.counter(
                "bytes_served", "payload bytes read/written", unit="B",
                fn=lambda: self.bytes_served),
            "tlb_hit_rate": m.gauge(
                "tlb.hit_rate", "TLB hits / lookups",
                fn=lambda: self.tlb.hit_rate),
            "page_faults": m.counter(
                "faults", "hardware page faults taken",
                fn=lambda: self.fast_path.faults),
            "nacks_sent": m.counter(
                "nacks_sent", "NACKs for corrupt arrivals",
                fn=lambda: self.nacks_sent),
            "retry_dedups": m.counter(
                "retry_dedups", "retries answered from the dedup ring",
                fn=lambda: self.retry_buffer.dedup_hits),
            "memory_utilization": m.gauge(
                "memory_utilization", "allocated fraction of DRAM pages",
                fn=lambda: self.pa_allocator.utilization),
            "pt_entries": m.gauge(
                "page_table.entries", "live PTEs",
                fn=lambda: self.page_table.entry_count),
            "alive": m.gauge(
                "alive", "fail-stop state", fn=lambda: self.alive),
            "crashes": m.counter(
                "crashes", fn=lambda: self.crashes),
            "restarts": m.counter(
                "restarts", fn=lambda: self.restarts),
            "packets_dropped_dead": m.counter(
                "packets_dropped_dead", "arrivals while crashed",
                fn=lambda: self.packets_dropped_dead),
            "responses_discarded": m.counter(
                "responses_discarded", "in-flight work killed by a crash",
                fn=lambda: self.responses_discarded),
        })
        # Finer-grained instruments not part of the public stats() keys.
        m.counter("batch.subops_served",
                  "sub-ops executed out of multi-op frames",
                  fn=lambda: self.batch_subops_served)
        m.counter("tlb.hits", fn=lambda: self.tlb.hits)
        m.counter("tlb.misses", fn=lambda: self.tlb.misses)
        m.counter("pipeline.requests", fn=lambda: self.fast_path.requests)
        m.counter("pipeline.tlb_misses",
                  fn=lambda: self.fast_path.tlb_miss_count)
        m.counter("slowpath.allocs", fn=lambda: self.slow_path.allocs)
        m.counter("slowpath.frees", fn=lambda: self.slow_path.frees)
        m.counter("slowpath.stalled_requests",
                  fn=lambda: self.slow_path.stalled_requests)
        # Allocation-strategy telemetry (repro.alloc).
        m.counter("alloc.slow_crossings",
                  "ARM global-pool touches by the PA strategy",
                  fn=lambda: self.pa_allocator.slow_crossings)
        m.gauge("alloc.fragmentation",
                "strategy-reported external-fragmentation ratio",
                fn=lambda: self.pa_allocator.fragmentation)
        m.gauge("alloc.free_pages", fn=lambda: self.pa_allocator.free_pages)
        m.counter("alloc.va_retries",
                  "failed VA candidates (hash-overflow retries)",
                  fn=lambda: self.va_allocator.total_retries)
        m.gauge("alloc.va_retry_max",
                "worst retries paid by a single successful alloc",
                fn=lambda: max(self.va_allocator.retry_histogram, default=0))
        if self.buffer_bank is not None:
            m.gauge("alloc.arena_buffers",
                    "per-process async buffers created",
                    fn=lambda: self.buffer_bank.created)
            m.counter("alloc.arena_rebalances",
                      fn=lambda: self.buffer_bank.rebalances)
        m.gauge("inflight", "requests in the handler chain",
                fn=lambda: self._inflight)

    def set_tracer(self, tracer: Optional[Tracer]) -> None:
        """Enable/disable span tracing on the board and its sub-paths."""
        self.tracer = tracer
        self.fast_path.set_tracer(tracer, self.name)
        self.slow_path.set_tracer(tracer, self.name)
        if tracer is None:
            return
        self._handler_sites = tracer.sites(
            "mn:", "cboard", self.name, ("request_id", "src", "discarded"))
        self._served_sites = Sites(self._register_served)
        self._response_site = tracer.site("mn_response", "cboard", self.name,
                                          ("request_id", "type", "dst"))
        self._crash_site = tracer.site("crashed", "fault", self.name)

    def _register_served(self, member: tuple) -> int:
        """The row of one (packet type, CN, status) request served by one
        traversal and one response: handler, traversal, response."""
        kind, src, status = member
        tracer = self.tracer
        return tracer.group(
            (COMPLETE, tracer.site("mn:" + kind.value, "cboard", self.name, {
                "request_id": int, "src": src, "discarded": False})),
            (COMPLETE, self.fast_path.stage_sites[AccessType(kind.value),
                                                  status]),
            (INSTANT, tracer.site("mn_response", "cboard", self.name, {
                "request_id": int, "type": PacketType.RESPONSE.value,
                "dst": src})))

    # -- failure model ------------------------------------------------------------

    def crash(self) -> None:
        """Fail-stop the board, discarding every piece of volatile state.

        Survives: the page table and DRAM contents (durable board memory),
        plus the PA free list (ARM-local DRAM).  Discarded: the TLB, the
        retry-dedup ring, partial multi-fragment writes, fence/drain
        bookkeeping, and all in-flight pipeline work — handlers from the
        old epoch finish silently and their responses are dropped, exactly
        as if the pipeline lost power mid-request.
        """
        if not self.alive:
            raise ValueError(f"{self.name} is already crashed")
        self.alive = False
        self._epoch += 1
        self.crashes += 1
        self.tlb.flush()
        self.retry_buffer.clear()
        self._write_progress.clear()
        self._inflight = 0
        self._fence_barrier = None
        self._drain_events.clear()
        if self.verifier is not None:
            self.verifier.on_board_crash(self)
        if self.tracer is not None:
            self._crash_span = self.tracer.begin(self._crash_site)

    def restart(self) -> None:
        """Bring a crashed board back; cold caches re-warm on demand.

        Post-restart requests TLB-miss and walk the preserved page table —
        the transportless design's recovery story: nothing to replay, no
        connection state to rebuild, just cache re-warming.
        """
        if self.alive:
            raise ValueError(f"{self.name} is not crashed")
        self.alive = True
        self.restarts += 1
        if self.verifier is not None:
            self.verifier.on_board_restart(self)
        if self.tracer is not None:
            self.tracer.end(self._crash_span)
            self._crash_span = None

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
        # MAT dispatch: which path (or drop) handles this packet.
        path = self.mat.classify(packet.header)
        if path is Path.DROP:
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
            while self._fence_barrier is not None and header.packet_type is not PacketType.FENCE:
                yield self._fence_barrier

            if header.packet_type is PacketType.FENCE:
                yield from self._handle_fence(packet, epoch)
                return

            self._inflight += 1
            try:
                if path is Path.FAST:
                    if header.packet_type is PacketType.READ:
                        served = yield from self._handle_read(packet, epoch,
                                                              lean)
                    elif header.packet_type is PacketType.WRITE:
                        served = yield from self._handle_write(packet, epoch,
                                                               lean)
                    elif header.packet_type is PacketType.ATOMIC:
                        yield from self._handle_atomic(packet, epoch)
                    elif header.packet_type is PacketType.BATCH:
                        yield from self._handle_batch(packet, epoch)
                elif path is Path.SLOW:
                    if header.packet_type is PacketType.ALLOC:
                        size, permission, fixed_va = packet.payload
                        yield from self._handle_once(
                            header, epoch, self.slow_path.handle_alloc(
                                header.pid, size, permission=permission,
                                fixed_va=fixed_va))
                    elif header.packet_type is PacketType.FREE:
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
            header.pid, AccessType.READ, header.va, header.size,
            wire_bytes=packet.wire_bytes, traced=not lean)
        if epoch != self._epoch:
            self.responses_discarded += 1
            if lean:        # no response to share a row with
                self.fast_path.trace(AccessType.READ, result)
            return
        self.requests_served += 1
        if result.status is not Status.OK:
            self._send(header.src, header.request_id, PacketType.RESPONSE,
                       ResponseBody(status=result.status,
                                    breakdown=result.breakdown), epoch=epoch,
                       traced=not lean)
            return result
        self.bytes_served += header.size
        # Read responses larger than MTU go back as independent fragments.
        fragments = fragment_payload(header.size, self._mtu)
        for index, (offset, size) in enumerate(fragments):
            body = ResponseBody(
                status=Status.OK,
                data=result.data[offset:offset + size],
                breakdown=result.breakdown if index == 0 else None)
            self._send(header.src, header.request_id, PacketType.RESPONSE,
                       body, fragment=index, fragments=len(fragments),
                       payload_bytes=size, total_size=header.size,
                       epoch=epoch, traced=not lean)
        return result

    def _handle_write(self, packet: Packet, epoch: int, lean: bool):
        header = packet.header
        progress = self._write_progress.get(header.request_id)
        if progress is None:
            progress = _WriteProgress(remaining=header.fragments)
            self._write_progress[header.request_id] = progress

        executed, _cached = self.retry_buffer.check(header.retry_of)
        result = None
        if executed:
            # A retried write whose original already executed must not run
            # again — re-executing could undo a newer write (section 4.5).
            yield self.env.timeout(self._netstack_ns)
        else:
            result = yield from self.fast_path.execute(
                header.pid, AccessType.WRITE, header.va, header.size,
                data=packet.payload, wire_bytes=packet.wire_bytes,
                traced=not lean)
        if epoch != self._epoch:
            # Crash wiped _write_progress; this fragment's work is lost.
            self.responses_discarded += 1
            if lean and result is not None:
                self.fast_path.trace(AccessType.WRITE, result)
            return
        if result is not None:
            progress.breakdown.merge(result.breakdown)
            if result.status is not Status.OK:
                progress.status = result.status
            else:
                self.bytes_served += header.size

        progress.remaining -= 1
        if progress.remaining > 0:
            return result
        # Whole request done: remember it for retry dedup, ack once.
        del self._write_progress[header.request_id]
        self.requests_served += 1
        if progress.status is Status.OK:
            self._remember(header)
        self._send(header.src, header.request_id, PacketType.RESPONSE,
                   ResponseBody(status=progress.status,
                                breakdown=progress.breakdown), epoch=epoch,
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
        # Pay the fixed pipeline cost (ingest + stages) then translate.
        ingest = self.fast_path.ingest_delay_ns(packet.wire_bytes)
        yield self.env.timeout(ingest + self._pipeline_fixed_ns)
        status, pa = yield from self.fast_path.translate_only(
            header.pid, AccessType.ATOMIC, header.va)
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
            self._send(header.src, header.request_id, PacketType.RESPONSE,
                       cached, epoch=epoch)
            return
        outcome = yield from run
        if epoch != self._epoch:
            # Page-table updates survive the crash (durable state), but the
            # response and the retry-dedup record are lost with the epoch.
            self.responses_discarded += 1
            return
        self.requests_served += 1
        body = ResponseBody(
            status=Status.OK if outcome.ok else Status.INVALID_VA,
            value=outcome)
        self._remember(header, body)
        self._send(header.src, header.request_id, PacketType.RESPONSE, body,
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
        header = ClioHeader(
            src=self.name, dst=dst, request_id=request_id,
            packet_type=packet_type, size=payload_bytes,
            total_size=total_size or payload_bytes,
            fragment=fragment, fragments=fragments)
        wire = self.params.network.header_bytes + payload_bytes
        self.topology.send(Packet(header=header, payload=body,
                                  wire_bytes=wire, sent_at=self.env.now))

    # -- direct (on-board) execution for benchmarks -------------------------------------

    def execute_local(self, pid: int, access: AccessType, va: int, size: int,
                      data: Optional[bytes] = None):
        """The fast-path process-generator, driven without the network.

        Used by the on-board traffic generator experiments (Figure 9) and
        by unit tests; semantics identical to the packet path for a
        single-fragment request.  A plain function, so a caller that
        ``yield from``s the result pays no extra generator frame.
        """
        return self.fast_path.execute(pid, access, va, size, data=data)

    # -- diagnostics ----------------------------------------------------------------------

    @property
    def memory_utilization(self) -> float:
        return self.pa_allocator.utilization

    def stats(self) -> dict:
        """Public counters — a view over the board's registry instruments
        (same keys and values as the historical ad-hoc dict)."""
        return self._stats.snapshot()
