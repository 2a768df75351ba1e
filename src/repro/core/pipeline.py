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
from functools import partial
from typing import Any, Optional

from repro.core.addr import AccessType, PageSpec, Permission
from repro.core.memory import DRAM
from repro.core.page_table import HashPageTable
from repro.core.pa_allocator import BufferBank
from repro.core.tlb import TLB
from repro.params import CBoardParams
from repro.sim import Event
from repro.telemetry.spans import Sites

#: PT bucket size fetched on a TLB miss (K slots x 16 B).
BUCKET_FETCH_BYTES = 64

#: The permission an access needs, indexed by ``access is AccessType.READ``
#: and tested by identity: a ``Flag`` membership test is two Python calls.
_NEEDS = (Permission.WRITE, Permission.READ)

#: Members the pipeline tests, bound once: on CPython 3.11 every ``Enum.X``
#: load takes ``EnumType.__getattr__``'s slow hook.
_READ, _WRITE, _ATOMIC = AccessType.READ, AccessType.WRITE, AccessType.ATOMIC
_READ_WRITE = Permission.READ_WRITE


class Status(enum.Enum):
    """Outcome of a fast-path request."""

    OK = "ok"
    INVALID_VA = "invalid_va"        # no PTE: unallocated address
    PERMISSION = "permission"        # R/W permission check failed
    OOM = "oom"                      # fault with no free physical page


_OK, _PERMISSION = Status.OK, Status.PERMISSION


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
    pa: Any = None   # an ATOMIC's word, translated only (CBoard: its PA)


class FastPath:
    """Hardware virtual-memory pipeline: translate, check, fault, access."""

    def __init__(self, env, params: CBoardParams, dram: DRAM,
                 page_table: HashPageTable, tlb: TLB,
                 buffers: BufferBank, page_spec: PageSpec):
        self.env = env
        self.params = params
        self.dram = dram
        self.page_table = page_table
        self.tlb = tlb
        self.buffers = buffers
        self.page_spec = page_spec
        # Delay constants, precomputed once: the per-request int(round())
        # arithmetic showed up in profiles of the packet-echo hot path.
        self._flit_bytes = params.datapath_bits // 8
        self._pipeline_fixed_ns = params.pipeline_ns()
        self._fault_fixed_ns = int(round(params.fault_cycles
                                         * params.cycle_ns))
        self._ingest_ns_cache: dict[int, int] = {}
        self._dram_ns: dict[int, int] = {}     # DRAM.access_time_ns by size
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
        # Span tracing: None unless the owning board enables it.  Hooks
        # only *record* — no events, no RNG — so traced and untraced runs
        # share every simulated timestamp.
        self.tracer = None

    def set_tracer(self, tracer, track: str) -> None:
        """Enable/disable span tracing; spans land on ``track``."""
        self.tracer = tracer
        if tracer is None:
            return
        # One typed site per (access, status) value: a record is the five
        # stages.  Keyed by value, a lookup hashes no enum member.
        self.stage_sites = Sites(lambda member: tracer.site(
            "fastpath:" + member[0], "pipeline", track,
            {"status": member[1], "ingest_ns": int, "pipeline_ns": int,
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
        now = self.env.now
        busy_ns = self._ingest_ns_cache.get(wire_bytes)
        if busy_ns is None:
            flits = max(1, math.ceil(wire_bytes / self._flit_bytes))
            busy_ns = int(round(flits * self.params.cycle_ns))
            self._ingest_ns_cache[wire_bytes] = busy_ns
        start = max(now, self._pipe_free_at)
        self._pipe_free_at = start + busy_ns
        return (start - now) + busy_ns

    # -- translation ---------------------------------------------------------------

    def _lookup(self, pid: int, vpn: int, access: AccessType):
        """The TLB stage: the PPN on a hit, ``Status.PERMISSION`` on a hit
        the permission check rejects, None on a miss."""
        hit = self.tlb.lookup(pid, vpn)
        if hit is None:
            return None
        ppn, permission = hit
        if (permission is _READ_WRITE
                or permission is _NEEDS[access is _READ]):
            return ppn
        return _PERMISSION

    def _walk(self, pid: int, vpn: int, access: AccessType,
              result: FastPathResult):
        """TLB miss: one DRAM access fetches the page's bucket, then the
        permission check and, for a page not present yet, the bounded
        fault path.  Yields timing events; returns the PPN or the failing
        :class:`Status`, and marks ``result`` as having missed (faulted)."""
        self.tlb_miss_count += 1
        result.tlb_missed = True
        fetch_ns = self.dram.access_time_ns(BUCKET_FETCH_BYTES)
        result.breakdown.tlb_miss_ns += fetch_ns
        yield self.env.timeout(fetch_ns)
        entry = self.page_table.lookup(pid, vpn)
        if entry is None:
            return Status.INVALID_VA
        if (entry.permission is not _READ_WRITE
                and entry.permission is not _NEEDS[access is _READ]):
            return _PERMISSION
        ppn = entry.ppn
        if ppn is None:
            # Hardware page fault: bounded three-cycle path.
            result.faulted = True
            ppn = yield from self._handle_fault(pid, vpn, entry,
                                                result.breakdown)
            if isinstance(ppn, Status):
                return ppn
        self.tlb.insert(pid, vpn, ppn, entry.permission)
        return ppn

    def _claim_dram(self, access: AccessType, size: int, serialize_dma: bool,
                    breakdown: Breakdown) -> int:
        """The DRAM stage's delay from now: the access itself and, for a
        read on the serialized DMA engine, the wait for the engine, which
        this claims."""
        dram_ns = self._dram_ns.get(size)
        if dram_ns is None:
            dram_ns = self._dram_ns[size] = self.dram.access_time_ns(size)
        if access is _READ and serialize_dma:
            now = self.env.now
            dma_start = max(now, self._read_dma_free_at)
            self._read_dma_free_at = dma_start + self.dram.access_ns
            dram_ns += dma_start - now
        breakdown.dram_ns = dram_ns
        return dram_ns

    def trace(self, access: str, result: FastPathResult) -> None:
        """Record the traversal that just returned ``result``, an
        ``access`` by its :class:`AccessType` value, as one complete span
        carrying the breakdown args."""
        now = self.env.now
        self.tracer.complete(self.stage_sites[access, result.status._value_],
                             now - result.breakdown.total_ns, now,
                             *result.breakdown.stages())

    def _handle_fault(self, pid: int, vpn: int, entry, breakdown: Breakdown):
        """Fault ``entry``'s page in; returns its PPN, or ``Status.OOM``."""
        start = self.env.now
        key = (pid, vpn)
        pending = self._pending_faults.get(key)
        if pending is not None:
            # Another request is already faulting this page in: wait for
            # its PTE instead of allocating a second physical page.
            yield pending
            breakdown.fault_ns += self.env.now - start
            return Status.OOM if entry.ppn is None else entry.ppn

        done = self.env.event()
        self._pending_faults[key] = done
        try:
            self.faults += 1
            yield self.env.timeout(self._fault_fixed_ns)
            buffer = self.buffers.buffer_for(pid)
            if len(buffer) == 0 and buffer.allocator.free_pages == 0:
                # Pages may sit reserved in other buffers; migrate one
                # ARM-locally instead of blocking forever.
                self.buffers.rebalance_into(pid)
                if len(buffer) == 0 and buffer.allocator._reserved == 0:
                    return Status.OOM
            ppn = yield buffer.pop()
            self.page_table.set_present(pid, vpn, ppn)
            # Parallel tasks: PT write-back and TLB insert happen off the
            # latency path, so nothing here waits for them.
            breakdown.fault_ns += self.env.now - start
            return ppn
        finally:
            del self._pending_faults[key]
            done.succeed()
            if self.tracer is not None:
                self.tracer.complete(self._fault_site, start, self.env.now,
                                     pid, vpn)

    # -- data access ------------------------------------------------------------------

    def execute(self, pid: int, access: AccessType, va: int, size: int,
                data: Optional[bytes] = None, wire_bytes: Optional[int] = None,
                serialize_dma: bool = True):
        """Process-generator: run one data request through the pipeline.

        Returns a :class:`FastPathResult`.  ``wire_bytes`` drives ingestion
        serialization (defaults to header+payload size).
        ``serialize_dma=False`` skips the read-response DMA engine — used
        by extend-path offloads, whose reads stay on-board and go through
        the memory controller's regular burst interface instead.
        """
        if size <= 0:
            raise ValueError(f"size must be positive, got {size}")
        if access is _WRITE and (data is None or len(data) != size):
            raise ValueError("write needs data of exactly `size` bytes")
        gate = Event(self.env)
        self.serve(pid, access, va, size, data,
                   size + 64 if wire_bytes is None else wire_bytes,
                   serialize_dma, gate.resume_waiters)
        result = yield gate
        if self.tracer is not None:
            self.trace(access._value_, result)
        return result

    def serve(self, pid: int, access: AccessType, va: int, size: int,
              data: Optional[bytes], wire_bytes: int, serialize_dma: bool,
              done) -> None:
        """Run a request through the pipeline and call ``done(result)``
        when it ends: :meth:`execute` without its checks or a generator.

        A one-page access is the lane: bare entries that end ingest
        (:meth:`_lane`) and, on a TLB hit, the DRAM access
        (:meth:`_access_dram`).  A miss walks the page table in a
        generator, as does an access across pages (:meth:`_pages`).  An
        ATOMIC is translated only: it ends with its word's ``pa`` set, and
        the atomic unit makes the access.
        """
        self.requests += 1
        result = FastPathResult(_OK)
        breakdown = result.breakdown
        # Ingest + fixed stages are back-to-back pure delays with no state
        # change in between: charge them as one entry.
        breakdown.ingest_ns = ingest = self.ingest_delay_ns(wire_bytes)
        breakdown.pipeline_ns = fixed_ns = self._pipeline_fixed_ns
        breakdown.total_ns = ingest + fixed_ns
        page_size = self.page_spec.page_size
        if (va & (page_size - 1)) + size <= page_size:
            self.env.schedule_callback(breakdown.total_ns, partial(
                self._lane, pid, access, va, size, data, serialize_dma,
                result, done))
        else:
            self.env.spawn(self._pages(pid, access, va, size, data,
                                       serialize_dma, result, done))

    def _lane(self, pid: int, access: AccessType, va: int, size: int,
              data: Optional[bytes], serialize_dma: bool,
              result: FastPathResult, done) -> None:
        """The entry that ends a one-page access's ingest: the TLB stage
        and, on a hit, the DRAM claim, whose entry ends the access.  A
        rejection ends it now; a miss walks the page table in
        :meth:`_pages`, started here."""
        page_size = self.page_spec.page_size
        ppn = self._lookup(pid, va >> self.page_spec.offset_bits, access)
        if ppn is None:
            self.env.spawn(self._pages(pid, access, va, size, data,
                                       serialize_dma, result, done, True))
        elif ppn is _PERMISSION:
            result.status = ppn
            done(result)
        elif access is _ATOMIC:
            result.pa = ppn * page_size + (va & (page_size - 1))
            done(result)
        else:
            dram_ns = self._claim_dram(access, size, serialize_dma,
                                       result.breakdown)
            result.breakdown.total_ns += dram_ns
            self.env.schedule_callback(dram_ns, partial(
                self._access_dram, ppn * page_size + (va & (page_size - 1)),
                access, size, data, result, done))

    def _access_dram(self, pa: int, access: AccessType, size: int,
                     data: Optional[bytes], result: FastPathResult,
                     done) -> None:
        """The entry that ends a TLB hit's DRAM stage: move the data."""
        if access is _READ:
            result.data = self.dram.read(pa, size)
        else:
            self.dram.write(pa, data)
        done(result)

    def _pages(self, pid: int, access: AccessType, va: int, size: int,
               data: Optional[bytes], serialize_dma: bool,
               result: FastPathResult, done, missed: bool = False):
        """Process-generator: an access across pages from its start, or a
        one-page access whose TLB lookup ``missed`` from its walk."""
        env = self.env
        breakdown = result.breakdown
        start = env.now
        if missed:
            start -= breakdown.total_ns
        else:
            yield env.timeout(breakdown.total_ns)
        # Translate every page the access touches into PA extents
        # (pa, offset in the request, length).
        page_size = self.page_spec.page_size
        extents, offset = [], 0
        while offset < size:
            addr = va + offset
            vpn = addr >> self.page_spec.offset_bits
            page_off = addr & (page_size - 1)
            ppn = None if missed else self._lookup(pid, vpn, access)
            missed = False
            if ppn is None:
                ppn = yield from self._walk(pid, vpn, access, result)
            if isinstance(ppn, Status):
                result.status = ppn
                break
            chunk = min(size - offset, page_size - page_off)
            extents.append((ppn * page_size + page_off, offset, chunk))
            offset += chunk
        else:
            if access is _ATOMIC:
                result.pa = extents[0][0]
            else:
                yield env.timeout(self._claim_dram(access, size,
                                                   serialize_dma, breakdown))
            if access is _READ:
                result.data = b"".join([self.dram.read(pa, length)
                                        for pa, _, length in extents])
            elif access is _WRITE:
                for pa, req_off, length in extents:
                    self.dram.write(pa, data[req_off:req_off + length])
        breakdown.total_ns = env.now - start
        done(result)
