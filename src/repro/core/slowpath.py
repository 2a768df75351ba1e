"""The ARM software slow path (paper sections 4.2-4.3, 5).

Metadata operations (ralloc/rfree) leave the ASIC through an RX ring that
a dedicated ARM core busy-polls; worker threads run the VA allocator
(including its hash-overflow retry loop) and post responses to a TX ring.
The 40 us FPGA<->ARM interconnect delay is mitigated exactly the way the
paper describes: polling (so each hop costs the ~2 us handoff, not 40 us)
and a shadow copy of the page table in ARM-local DRAM that is synced in
the background.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.alloc.pa_strategies import PAStrategy
from repro.core.addr import Permission
from repro.core.tlb import TLB
from repro.core.va_allocator import AllocationError, VAAllocator
from repro.params import CBoardParams
from repro.sim import Environment, Resource


@dataclass
class AllocResponse:
    """Result of a slow-path ralloc."""

    ok: bool
    va: int = 0
    size: int = 0
    retries: int = 0
    error: Optional[str] = None


@dataclass
class FreeResponse:
    ok: bool
    freed_pages: int = 0
    error: Optional[str] = None


class SlowPath:
    """ARM-side metadata handling with explicit crossing/handling costs."""

    def __init__(self, env: Environment, params: CBoardParams,
                 va_allocator: VAAllocator, pa_allocator: PAStrategy,
                 tlb: TLB, dram=None):
        self.env = env
        self.params = params
        self.va_allocator = va_allocator
        self.pa_allocator = pa_allocator
        self.tlb = tlb
        self.dram = dram
        # One polling core hands work to the remaining worker cores.
        self._workers = Resource(env, capacity=params.arm_cores - 1)
        self.allocs = 0
        self.frees = 0
        self.shadow_syncs = 0
        # Fault injection: a stalled ARM (GC pause, kernel hiccup) stops
        # picking work off the RX ring; requests queue here until the stall
        # lifts.  The fast path is unaffected — only metadata ops stall.
        self._stall_gate = None
        self.stalled_requests = 0
        # Span tracing (None = disabled); the owning CBoard sets it.
        self.tracer = None
        self._stall_span = None
        # Runtime correctness checking (repro.verify); metadata ops are
        # where pages move between free list, async buffer, and PTEs, so
        # the verifier runs a full conservation sweep after each one.
        self.verifier = None

    def set_tracer(self, tracer, track: str) -> None:
        """Enable/disable span tracing; spans land on ``track``."""
        self.tracer = tracer
        if tracer is None:
            return
        self._stall_site = tracer.site("arm_stall", "fault", track)
        self._alloc_site = tracer.site("slowpath:alloc", "slowpath", track,
                                       ("pid", "size"))
        self._free_site = tracer.site("slowpath:free", "slowpath", track,
                                      ("pid", "va"))
        self._end_failed = tracer.end_site("ok")
        self._end_alloc = tracer.end_site("ok", "retries")
        self._end_free = tracer.end_site("ok", "freed_pages")

    def begin_stall(self) -> None:
        """Stop servicing new slow-path work until :meth:`end_stall`."""
        if self._stall_gate is None:
            self._stall_gate = self.env.event()
            if self.tracer is not None:
                self._stall_span = self.tracer.begin(self._stall_site)

    def end_stall(self) -> None:
        """Resume servicing; queued requests proceed in arrival order."""
        gate = self._stall_gate
        if gate is not None:
            self._stall_gate = None
            gate.succeed()
            if self.tracer is not None:
                self.tracer.end(self._stall_span)
                self._stall_span = None

    @property
    def stalled(self) -> bool:
        return self._stall_gate is not None

    def _stall_check(self):
        """Park the caller while the ARM is stalled."""
        while self._stall_gate is not None:
            self.stalled_requests += 1
            yield self._stall_gate

    def _handoff(self):
        """RX-ring poll pickup plus TX-ring response posting."""
        yield self.env.timeout(self.params.arm_polling_handoff_ns)

    def handle_alloc(self, pid: int, size: int,
                     permission: Permission = Permission.READ_WRITE,
                     fixed_va: Optional[int] = None):
        """Process-generator for ralloc; returns :class:`AllocResponse`.

        Cost = handoff in + VA-tree search + 0.5 ms per overflow retry
        (paper section 7.1) + handoff out.  The PTE inserts are forwarded
        to the fast path's table as *valid, not present* entries.
        """
        tracer = self.tracer
        span = None
        if tracer is not None:
            span = tracer.begin(self._alloc_site, pid, size)
        yield from self._stall_check()
        worker = self._workers.request()
        yield worker
        try:
            yield from self._handoff()
            yield self.env.timeout(self.params.arm_va_search_ns)
            try:
                outcome = self.va_allocator.allocate(
                    pid, size, permission=permission, fixed_va=fixed_va)
            except (AllocationError, ValueError) as exc:
                yield from self._handoff()
                if tracer is not None:
                    tracer.end(span, self._end_failed, False)
                return AllocResponse(ok=False, error=str(exc))
            if outcome.retries:
                yield self.env.timeout(outcome.retries * self.params.arm_retry_ns)
            self.allocs += 1
            # Shadow page table kept in ARM-local DRAM; the sync to the
            # on-board table happens in the background (not on this path).
            self.shadow_syncs += 1
            yield from self._handoff()
            if self.verifier is not None:
                self.verifier.on_metadata_op(self)
            if tracer is not None:
                tracer.end(span, self._end_alloc, True, outcome.retries)
            return AllocResponse(ok=True, va=outcome.allocation.va,
                                 size=outcome.allocation.size,
                                 retries=outcome.retries)
        finally:
            self._workers.release(worker)

    def handle_free(self, pid: int, va: int):
        """Process-generator for rfree; returns :class:`FreeResponse`.

        Recycled physical pages are zeroed before reuse so a future owner
        can never observe stale bytes (R5), and stale TLB translations are
        shot down for consistency with in-flight operations.
        """
        tracer = self.tracer
        span = None
        if tracer is not None:
            span = tracer.begin(self._free_site, pid, va)
        yield from self._stall_check()
        worker = self._workers.request()
        yield worker
        try:
            yield from self._handoff()
            yield self.env.timeout(self.params.arm_va_search_ns)
            try:
                allocation, freed_ppns = self.va_allocator.free(pid, va)
            except KeyError as exc:
                yield from self._handoff()
                if tracer is not None:
                    tracer.end(span, self._end_failed, False)
                return FreeResponse(ok=False, error=str(exc))
            page_size = self.va_allocator.page_spec.page_size
            first_vpn = allocation.va // page_size
            for vpn in range(first_vpn, first_vpn + allocation.size // page_size):
                self.tlb.invalidate(pid, vpn)
            for ppn in freed_ppns:
                if self.dram is not None:
                    self.dram.zero(ppn * page_size, page_size)
                self.pa_allocator.free(ppn, pid=pid)
            self.frees += 1
            yield from self._handoff()
            if self.verifier is not None:
                self.verifier.on_metadata_op(self)
            if tracer is not None:
                tracer.end(span, self._end_free, True, len(freed_ppns))
            return FreeResponse(ok=True, freed_pages=len(freed_ppns))
        finally:
            self._workers.release(worker)

    def single_pa_alloc(self):
        """Process-generator: one synchronous PA allocation (Figure 12).

        Exposed so the allocation benchmark can measure the paper's
        '<20 us' number directly; the data path never calls this — it pops
        the async buffer instead.
        """
        yield self.env.timeout(self.params.arm_pa_alloc_ns)
        return self.pa_allocator.allocate()
