"""The deterministic fast-path pipeline (paper sections 4.1-4.3).

Design properties the model reproduces exactly:

* **Smooth**: the pipeline ingests one 512-bit flit per cycle (II = 1), so
  back-to-back requests serialize only on flit ingestion — that is what
  lets the board sustain >100 Gbps (Figure 9).
* **Deterministic**: a request spends a *fixed* number of cycles in the
  MAT/decode/translate/permission/response stages; the only variable terms
  are one DRAM bucket fetch on a TLB miss and the bounded 3-cycle fault
  path — which is why the tail stays at 3.2 us (Figure 7).
* **Bounded fault handling**: a fault pops a pre-reserved physical page
  from the async buffer and then runs three tasks in parallel (PT
  write-back, TLB insert, continue the faulting access), so only the pop
  sits on the latency path.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Optional

from repro.core.addr import AccessType, PageSpec, Permission
from repro.core.memory import DRAM
from repro.core.page_table import HashPageTable
from repro.core.pa_allocator import AsyncBuffer
from repro.core.tlb import TLB
from repro.params import CBoardParams
from repro.telemetry.spans import Sites

#: PT bucket size fetched on a TLB miss (K slots x 16 B).
BUCKET_FETCH_BYTES = 64


class Status(enum.Enum):
    """Outcome of a fast-path request."""

    OK = "ok"
    INVALID_VA = "invalid_va"        # no PTE: unallocated address
    PERMISSION = "permission"        # R/W permission check failed
    OOM = "oom"                      # fault with no free physical page


@dataclass(slots=True)
class Breakdown:
    """Per-request latency decomposition (drives Figure 14)."""

    ingest_ns: int = 0        # flit serialization into the pipeline
    pipeline_ns: int = 0      # fixed-cycle stages
    tlb_miss_ns: int = 0      # PT bucket fetches
    fault_ns: int = 0         # bounded fault path (incl. async-buffer pop)
    dram_ns: int = 0          # data access
    total_ns: int = 0

    def merge(self, other: "Breakdown") -> None:
        self.ingest_ns += other.ingest_ns
        self.pipeline_ns += other.pipeline_ns
        self.tlb_miss_ns += other.tlb_miss_ns
        self.fault_ns += other.fault_ns
        self.dram_ns += other.dram_ns
        self.total_ns += other.total_ns

    def stages(self) -> tuple[int, int, int, int, int]:
        """The stage times, in the order a ``fastpath:*`` span lists them."""
        return (self.ingest_ns, self.pipeline_ns, self.tlb_miss_ns,
                self.fault_ns, self.dram_ns)


@dataclass(slots=True)
class FastPathResult:
    status: Status
    data: Optional[bytes] = None
    faulted: bool = False
    tlb_missed: bool = False
    breakdown: Breakdown = field(default_factory=Breakdown)


class FastPath:
    """Hardware virtual-memory pipeline: translate, check, fault, access."""

    def __init__(self, env, params: CBoardParams, dram: DRAM,
                 page_table: HashPageTable, tlb: TLB,
                 async_buffer: AsyncBuffer, page_spec: PageSpec):
        self.env = env
        self.params = params
        self.dram = dram
        self.page_table = page_table
        self.tlb = tlb
        self.async_buffer = async_buffer
        self.page_spec = page_spec
        # Arena mode routes faults to per-process buffers; None (default)
        # keeps every fault on the shared async buffer, bit-identically.
        self.buffer_bank = None
        # Delay constants, precomputed once: the per-request int(round())
        # arithmetic showed up in profiles of the packet-echo hot path.
        self._flit_bytes = params.datapath_bits // 8
        self._pipeline_fixed_ns = params.pipeline_ns()
        self._fault_fixed_ns = int(round(params.fault_cycles
                                         * params.cycle_ns))
        self._ingest_ns_cache: dict[int, int] = {}
        self._pipe_free_at = 0   # II=1 ingestion bookkeeping
        # The board's read path goes through a non-pipelined DMA IP: each
        # read pays a serialized setup (the paper's Figure 9 bottleneck —
        # "read throughput is lower than write when request size is
        # smaller").  Writes are posted and don't serialize here.
        self._read_dma_free_at = 0
        # Per-page fault serialization: concurrent requests faulting on
        # the same page must resolve to ONE physical page (the hardware
        # handler admits one fault per page; followers reuse its PTE).
        self._pending_faults: dict[tuple[int, int], object] = {}
        self.requests = 0
        self.faults = 0
        self.tlb_miss_count = 0
        # Background PT write-backs issued by the fault handler (parallel
        # task 1 of 3); tracked only for accounting.
        self.background_pt_writes = 0
        # Span tracing: None unless the owning board enables it.  Hooks
        # only *record* — no events, no RNG — so traced and untraced runs
        # share every simulated timestamp.
        self.tracer = None

    def set_tracer(self, tracer, track: str) -> None:
        """Enable/disable span tracing; spans land on ``track``."""
        self.tracer = tracer
        if tracer is None:
            return
        # One typed site per (access, status): a record is the five stages.
        self.stage_sites = Sites(lambda member: tracer.site(
            "fastpath:" + member[0].value, "pipeline", track,
            {"status": member[1].value, "ingest_ns": int, "pipeline_ns": int,
             "tlb_miss_ns": int, "fault_ns": int, "dram_ns": int}))
        self._fault_site = tracer.site("page_fault", "pipeline", track,
                                       ("pid", "vpn"))

    # -- ingestion (smoothness) ------------------------------------------------

    def ingest_delay_ns(self, wire_bytes: int) -> int:
        """Time until this request's last flit has entered the pipeline.

        Models the one-flit-per-cycle intake: a request of N flits holds
        the intake for N cycles, and a request arriving while the intake
        is busy waits for the remainder.
        """
        busy_ns = self._ingest_ns_cache.get(wire_bytes)
        if busy_ns is None:
            flits = max(1, math.ceil(wire_bytes / self._flit_bytes))
            busy_ns = int(round(flits * self.params.cycle_ns))
            self._ingest_ns_cache[wire_bytes] = busy_ns
        start = max(self.env.now, self._pipe_free_at)
        self._pipe_free_at = start + busy_ns
        return (start - self.env.now) + busy_ns

    # -- translation ---------------------------------------------------------------

    def _translate(self, pid: int, vpn: int, access: AccessType,
                   breakdown: Breakdown):
        """Translate one page; yields timing events, returns (status, ppn)."""
        hit = self.tlb.lookup(pid, vpn)
        if hit is not None:
            ppn, permission = hit
            if access.required_permission not in permission:
                return Status.PERMISSION, None
            return Status.OK, ppn

        # TLB miss: exactly one DRAM access fetches the whole bucket.
        self.tlb_miss_count += 1
        fetch_ns = self.dram.access_time_ns(BUCKET_FETCH_BYTES)
        breakdown.tlb_miss_ns += fetch_ns
        yield self.env.timeout(fetch_ns)
        entry = self.page_table.lookup(pid, vpn)
        if entry is None:
            return Status.INVALID_VA, None
        if access.required_permission not in entry.permission:
            return Status.PERMISSION, None

        if not entry.present:
            # Hardware page fault: bounded three-cycle path.
            status, ppn = yield from self._handle_fault(pid, vpn, entry,
                                                        breakdown)
            if status is not Status.OK:
                return status, None
        else:
            ppn = entry.ppn

        self.tlb.insert(pid, vpn, ppn, entry.permission)
        return Status.OK, ppn

    def trace(self, access: AccessType, result: FastPathResult) -> None:
        """Record the traversal that just returned ``result`` as one
        complete span carrying the breakdown args."""
        now = self.env.now
        self.tracer.complete(self.stage_sites[access, result.status],
                             now - result.breakdown.total_ns, now,
                             *result.breakdown.stages())

    def _handle_fault(self, pid: int, vpn: int, entry, breakdown: Breakdown):
        start = self.env.now
        key = (pid, vpn)
        pending = self._pending_faults.get(key)
        if pending is not None:
            # Another request is already faulting this page in: wait for
            # its PTE instead of allocating a second physical page.
            yield pending
            breakdown.fault_ns += self.env.now - start
            if entry.present:
                return Status.OK, entry.ppn
            return Status.OOM, None

        done = self.env.event()
        self._pending_faults[key] = done
        try:
            self.faults += 1
            yield self.env.timeout(self._fault_fixed_ns)
            buffer = (self.async_buffer if self.buffer_bank is None
                      else self.buffer_bank.buffer_for(pid))
            if len(buffer) == 0 and buffer.allocator.free_pages == 0:
                if self.buffer_bank is not None:
                    # Pages may sit reserved in sibling arenas' buffers;
                    # migrate one ARM-locally instead of blocking forever.
                    self.buffer_bank.rebalance_into(pid)
                if len(buffer) == 0 and buffer.allocator._reserved == 0:
                    return Status.OOM, None
            ppn = yield buffer.pop()
            self.page_table.set_present(pid, vpn, ppn)
            # Parallel tasks: PT write-back and TLB insert happen off the
            # latency path; only account them.
            self.background_pt_writes += 1
            breakdown.fault_ns += self.env.now - start
            return Status.OK, ppn
        finally:
            del self._pending_faults[key]
            done.succeed()
            if self.tracer is not None:
                self.tracer.complete(self._fault_site, start, self.env.now,
                                     pid, vpn)

    # -- data access ------------------------------------------------------------------

    def execute(self, pid: int, access: AccessType, va: int, size: int,
                data: Optional[bytes] = None, wire_bytes: Optional[int] = None,
                serialize_dma: bool = True, traced: bool = True):
        """Process-generator: run one data request through the pipeline.

        Returns a :class:`FastPathResult`.  ``wire_bytes`` drives ingestion
        serialization (defaults to header+payload size).
        ``serialize_dma=False`` skips the read-response DMA engine — used
        by extend-path offloads, whose reads stay on-board and go through
        the memory controller's regular burst interface instead.
        ``traced=False`` leaves the ``fastpath:*`` span to the caller,
        who records it in a row of its own (:meth:`CBoard._handle`).
        """
        if size <= 0:
            raise ValueError(f"size must be positive, got {size}")
        if access is AccessType.WRITE:
            if data is None or len(data) != size:
                raise ValueError("write needs data of exactly `size` bytes")
        self.requests += 1
        breakdown = Breakdown()
        start = self.env.now

        # Ingest + fixed stages are back-to-back pure delays with no state
        # change in between: charge them as one event.
        ingest = self.ingest_delay_ns(wire_bytes if wire_bytes is not None
                                      else size + 64)
        breakdown.ingest_ns = ingest
        fixed_ns = self._pipeline_fixed_ns
        breakdown.pipeline_ns = fixed_ns
        yield self.env.timeout(ingest + fixed_ns)

        tlb_misses_before = self.tlb_miss_count
        faults_before = self.faults

        # Translate every page the access touches and collect PA extents.
        extents: list[tuple[int, int, int]] = []  # (pa, offset_in_request, len)
        offset = 0
        while offset < size:
            addr = va + offset
            vpn = self.page_spec.page_number(addr)
            page_off = self.page_spec.page_offset(addr)
            chunk = min(size - offset, self.page_spec.page_size - page_off)
            status, ppn = yield from self._translate(pid, vpn, access, breakdown)
            if status is not Status.OK:
                breakdown.total_ns = self.env.now - start
                result = FastPathResult(
                    status=status, breakdown=breakdown,
                    tlb_missed=self.tlb_miss_count > tlb_misses_before,
                    faulted=self.faults > faults_before)
                if self.tracer is not None and traced:
                    self.trace(access, result)
                return result
            extents.append((ppn * self.page_spec.page_size + page_off,
                            offset, chunk))
            offset += chunk

        # The actual memory access.  Reads additionally serialize on the
        # DMA engine's fixed setup; the data stream itself is pipelined.
        dram_ns = self.dram.access_time_ns(size)
        if access is AccessType.READ and serialize_dma:
            dma_start = max(self.env.now, self._read_dma_free_at)
            self._read_dma_free_at = dma_start + self.dram.access_ns
            dram_ns += dma_start - self.env.now
        breakdown.dram_ns = dram_ns
        yield self.env.timeout(dram_ns)
        result_data: Optional[bytes] = None
        if access is AccessType.READ:
            parts = [self.dram.read(pa, length) for pa, _, length in extents]
            result_data = b"".join(parts)
        elif access is AccessType.WRITE:
            for pa, req_off, length in extents:
                self.dram.write(pa, data[req_off:req_off + length])

        breakdown.total_ns = self.env.now - start
        result = FastPathResult(
            status=Status.OK, data=result_data,
            tlb_missed=self.tlb_miss_count > tlb_misses_before,
            faulted=self.faults > faults_before, breakdown=breakdown)
        if self.tracer is not None and traced:
            self.trace(access, result)
        return result

    def translate_only(self, pid: int, access: AccessType, va: int):
        """Translate a single address without a data access (atomics path).

        Returns ``(status, pa)``.
        """
        breakdown = Breakdown()
        vpn = self.page_spec.page_number(va)
        status, ppn = yield from self._translate(pid, vpn, access, breakdown)
        if status is not Status.OK:
            return status, None
        return Status.OK, ppn * self.page_spec.page_size + self.page_spec.page_offset(va)
