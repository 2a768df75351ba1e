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

The netstack, the MAT dispatch and every response are the shared wire
protocol of :mod:`repro.core.wire`; this module builds the hardware
behind it.  The only two kinds of state the MN keeps beyond the page
table are reproduced exactly: the bounded retry-dedup ring and the
(bounded, infrequent) synchronization state — fence drain tracking and
the single atomic unit.
"""

from __future__ import annotations

from typing import Optional

from repro.alloc.pa_strategies import make_pa_strategy
from repro.core.addr import AccessType, PageSpec
from repro.core.extend import ExtendPath
from repro.core.memory import DRAM
from repro.core.pa_allocator import BufferBank
from repro.core.page_table import HashPageTable
from repro.core.pipeline import FastPath
from repro.core.slowpath import SlowPath
from repro.core.sync import AtomicUnit
from repro.core.tlb import TLB
from repro.core.va_allocator import VAAllocator
# ResponseBody and _WriteProgress are re-exported: callers import them here.
from repro.core.wire import Board, ResponseBody, _WriteProgress
from repro.net.packet import PacketType
from repro.params import ClioParams
from repro.sim import Environment
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.spans import COMPLETE, INSTANT, Sites, Tracer


class CBoard(Board):
    """One memory node: fast + slow + extend paths over on-board DRAM."""

    def __init__(self, env: Environment, params: ClioParams,
                 name: str = "mn0", dram_capacity: Optional[int] = None,
                 page_size: Optional[int] = None,
                 registry: Optional[MetricsRegistry] = None):
        cb = params.cboard
        # The netstack delay is precomputed once (the per-packet
        # int(round()) recomputation was measurable on the echo hot path).
        super().__init__(env, params, name,
                         int(round(cb.netstack_cycles * cb.cycle_ns)))
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
        # Telemetry.  Counters stay plain attributes (the hot path keeps
        # its `+= 1`s); the registry holds function-backed views of them
        # under `cboard.<name>.*`.
        self.metrics = (registry if registry is not None
                        else MetricsRegistry()).scope(f"cboard.{name}")
        alloc = params.alloc
        self.pa_allocator = make_pa_strategy(alloc.pa_strategy,
                                             physical_pages, alloc)
        self.metrics.scope("alloc").attribute_counters(
            self.pa_allocator, self.pa_allocator.COUNTERS)
        arena_mode = alloc.pa_strategy == "arena"
        # In arena mode each process gets its own async buffer (created
        # lazily at first fault); the shared buffer shrinks to depth 1 so
        # it does not strand hundreds of reserved pages nobody will pop.
        self.buffers = BufferBank(
            env, self.pa_allocator,
            shared_depth=1 if arena_mode else min(cb.async_buffer_depth,
                                                  physical_pages),
            refill_ns=cb.arm_pa_alloc_ns,
            process_depth=min(alloc.arena_buffer_depth, physical_pages)
            if arena_mode else None)
        self.va_allocator = VAAllocator(self.page_table, self.page_spec,
                                        policy=alloc.va_policy)
        self.fast_path = FastPath(env, cb, self.dram, self.page_table,
                                  self.tlb, self.buffers, self.page_spec)
        self.slow_path = SlowPath(env, cb, self.va_allocator,
                                  self.pa_allocator, self.tlb, dram=self.dram)
        self.extend_path = ExtendPath(env, cb, self.fast_path, self.slow_path)
        self.atomic_unit = AtomicUnit(env, self.dram)

        # Failure model.  The paper's crash-recovery argument: everything
        # except the page table is volatile and reconstructible, so a crash
        # wipes the TLB, retry buffer, and in-flight pipeline work while the
        # page table (board DRAM) survives.
        self.crashes = 0
        self.restarts = 0

        self._crash_span = None
        self._register_metrics()

    def _register_metrics(self) -> None:
        m = self.metrics
        m.counter("requests_served", "requests answered with a response",
                  fn=lambda: self.requests_served)
        m.counter("bytes_served", "payload bytes read/written", unit="B",
                  fn=lambda: self.bytes_served)
        m.gauge("tlb.hit_rate", "TLB hits / lookups",
                fn=lambda: self.tlb.hit_rate)
        m.counter("faults", "hardware page faults taken",
                  fn=lambda: self.fast_path.faults)
        m.counter("nacks_sent", "NACKs for corrupt arrivals",
                  fn=lambda: self.nacks_sent)
        m.counter("retry_dedups", "retries answered from the dedup ring",
                  fn=lambda: self.retry_buffer.dedup_hits)
        m.gauge("memory_utilization", "allocated fraction of DRAM pages",
                fn=lambda: self.pa_allocator.utilization)
        m.gauge("page_table.entries", "live PTEs",
                fn=lambda: self.page_table.entry_count)
        m.gauge("alive", "fail-stop state", fn=lambda: self.alive)
        m.counter("crashes", fn=lambda: self.crashes)
        m.counter("restarts", fn=lambda: self.restarts)
        m.counter("packets_dropped_dead", "arrivals while crashed",
                  fn=lambda: self.packets_dropped_dead)
        m.counter("responses_discarded", "in-flight work killed by a crash",
                  fn=lambda: self.responses_discarded)
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
        if self.buffers.process_depth is not None:
            m.gauge("alloc.arena_buffers",
                    "per-process async buffers created",
                    fn=lambda: self.buffers.created)
            m.counter("alloc.arena_rebalances",
                      fn=lambda: self.buffers.rebalances)
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
        self._served_rows = Sites(self._register_served)
        self._response_site = tracer.site("mn_response", "cboard", self.name,
                                          ("request_id", "type", "dst"))
        self._crash_site = tracer.site("crashed", "fault", self.name)

    def _register_served(self, member: tuple):
        """The row of one (packet type, CN, status) request — by value —
        served by one traversal and one response: handler, traversal,
        response, over the cells ``start, end, request_id`` and the five
        stage times, which the three share."""
        kind, src, status = member
        tracer = self.tracer
        return tracer.group(
            (COMPLETE, tracer.site("mn:" + kind, "cboard", self.name, {
                "request_id": int, "src": src, "discarded": False}),
             0, 1, 2),
            (COMPLETE, self.fast_path.stage_sites[kind, status],
             0, 1, 3, 4, 5, 6, 7),
            (INSTANT, tracer.site("mn_response", "cboard", self.name, {
                "request_id": int, "type": PacketType.RESPONSE.value,
                "dst": src}), 1, 2))

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
        self._drain = None
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
