"""SimBoard: the paper's software CBoard simulator (section 5).

    "To assist Clio users in building their applications, we implemented
    a simple software simulator of CBoard which works with CLib for
    developers to test their code without the need to run an actual
    CBoard."

SimBoard is that artifact inside this reproduction: a drop-in MN that
speaks CBoard's packet protocol by construction — it is a
:class:`repro.core.wire.Board`, so NACKs, fences, BATCH frames, retry
dedup and response fragmenting are CBoard's own code — over a memory
model written independently of CBoard's: plain software maps with a
single flat service delay.  Use it when a test needs Clio *semantics*
without Clio *timing* (it runs with far fewer simulation events than the
full board); ``tests/integration/test_board_equivalence.py`` checks that
the two memory models agree.

Differences from CBoard, by design:

* no pipeline/TLB/fault timing — every read, write, atomic, alloc, free
  and offload costs ``service_ns`` (a fence only waits for the drain);
* no physical page management — a page is materialized on first touch
  and cannot run out before host memory does;
* no slow-path/fast-path split — allocations and pages are one software
  map, and offloads are plain host callables.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

from repro.core.addr import AccessType, PageSpec, Permission
from repro.core.extend import OffloadResult
from repro.core.pipeline import FastPathResult, Status
from repro.core.slowpath import AllocResponse, FreeResponse
from repro.core.sync import ATOMIC_WIDTH, AtomicOp, AtomicResult, AtomicUnit
from repro.core.wire import Board
from repro.params import ClioParams
from repro.sim import Environment


@dataclass
class _SimAllocation:
    va: int
    size: int
    permission: Permission


@dataclass
class _SimSpace:
    """One process's RAS: allocations plus the pages touched so far."""

    allocations: list[_SimAllocation] = field(default_factory=list)
    pages: dict[int, bytearray] = field(default_factory=dict)
    next_va: int = 1 << 22


def _gather(extents) -> bytes:
    return b"".join(page[offset:offset + length]
                    for page, offset, length in extents)


def _scatter(extents, data: bytes) -> None:
    position = 0
    for page, offset, length in extents:
        page[offset:offset + length] = data[position:position + length]
        position += length


class FlatMemory:
    """SimBoard's fast and slow path: the calls the shared wire makes,
    answered from per-process maps after one ``service_ns`` delay."""

    def __init__(self, env: Environment, page_spec: PageSpec,
                 service_ns: int):
        self.env = env
        self.page_spec = page_spec
        self.service_ns = service_ns
        self._spaces: dict[int, _SimSpace] = {}

    def _space(self, pid: int) -> _SimSpace:
        return self._spaces.setdefault(pid, _SimSpace())

    def _extents(self, pid: int, access: AccessType, va: int, size: int):
        """The ``(page, offset, length)`` pieces of an access, each page
        materialized on first touch; or the :class:`Status` of the first
        page it may not touch (the pages before that one stay touched)."""
        space = self._space(pid)
        page_size = self.page_spec.page_size
        extents = []
        position, end = va, va + size
        while position < end:
            allocation = next((a for a in space.allocations
                               if a.va <= position < a.va + a.size), None)
            if allocation is None:
                return Status.INVALID_VA
            if access.required_permission not in allocation.permission:
                return Status.PERMISSION
            number, offset = divmod(position, page_size)
            page = space.pages.get(number)
            if page is None:
                page = space.pages[number] = bytearray(page_size)
            length = min(end - position, page_size - offset)
            extents.append((page, offset, length))
            position += length
        return extents

    def serve(self, pid: int, access: AccessType, va: int, size: int,
              data: Optional[bytes], _wire_bytes: int, _serialize_dma: bool,
              done) -> None:
        """A read, write or atomic that calls ``done(result)`` after the
        delay; ``wire_bytes`` and ``serialize_dma`` only time CBoard's
        pipeline."""
        self.env.schedule_callback(self.service_ns, lambda: done(
            self._access(pid, access, va, size, data)))

    def _access(self, pid: int, access: AccessType, va: int, size: int,
                data: Optional[bytes]) -> FastPathResult:
        extents = self._extents(pid, access, va, size)
        if isinstance(extents, Status):
            return FastPathResult(extents)
        if access is AccessType.ATOMIC:
            # The word's extents are its "physical address".
            return FastPathResult(Status.OK, pa=extents)
        if access is AccessType.WRITE:
            _scatter(extents, data)
            return FastPathResult(Status.OK)
        return FastPathResult(Status.OK, _gather(extents))

    def execute(self, pid: int, access: AccessType, va: int, size: int,
                data: Optional[bytes] = None, **_pipeline):
        """Process-generator: :meth:`serve` for a caller that waits."""
        yield self.env.timeout(self.service_ns)
        return self._access(pid, access, va, size, data)

    def handle_alloc(self, pid: int, size: int,
                     permission: Permission = Permission.READ_WRITE,
                     fixed_va: Optional[int] = None):
        """Process-generator: bump allocation past every earlier range,
        or at ``fixed_va``."""
        yield self.env.timeout(self.service_ns)
        space = self._space(pid)
        aligned = self.page_spec.round_up(size)
        va = space.next_va if fixed_va is None else fixed_va
        if fixed_va is None:
            space.next_va += aligned
        space.allocations.append(_SimAllocation(va, aligned, permission))
        return AllocResponse(ok=True, va=va, size=aligned)

    def handle_free(self, pid: int, va: int):
        """Process-generator: drop the allocation at ``va``; the pages it
        had touched are the ones freed."""
        yield self.env.timeout(self.service_ns)
        space = self._space(pid)
        for allocation in space.allocations:
            if allocation.va == va:
                space.allocations.remove(allocation)
                first = va // self.page_spec.page_size
                pages = range(first, first + allocation.size
                              // self.page_spec.page_size)
                freed = [space.pages.pop(number) for number in pages
                         if number in space.pages]
                return FreeResponse(ok=True, freed_pages=len(freed))
        return FreeResponse(ok=False, error="unknown va")


class _FlatAtomicUnit:
    """SimBoard's atomic unit: the read-modify-write of a word whose
    extents :meth:`FlatMemory.serve` found, which charged the delay."""

    @staticmethod
    def execute(pa, op: AtomicOp):
        """Process-generator that never suspends; returns AtomicResult."""
        yield from ()
        old = int.from_bytes(_gather(pa), "little")
        new, success = AtomicUnit._apply(old, op)
        if new is not None:
            _scatter(pa, new.to_bytes(ATOMIC_WIDTH, "little"))
        return AtomicResult(old_value=old, success=success)


class SimBoard(Board):
    """A software stand-in for CBoard with identical request semantics."""

    PAGE = 4 << 20

    def __init__(self, env: Environment, params: ClioParams,
                 name: str = "mn0", service_ns: int = 500):
        if service_ns < 0:
            raise ValueError(f"service_ns must be non-negative, got {service_ns}")
        # A NACK or a deduplicated write fragment costs the flat delay too.
        super().__init__(env, params, name, service_ns)
        self.service_ns = service_ns
        self.page_spec = PageSpec(self.PAGE)
        self.fast_path = self.slow_path = FlatMemory(env, self.page_spec,
                                                     service_ns)
        self.atomic_unit = _FlatAtomicUnit()
        self.extend_path = self
        self._offloads: dict[str, Any] = {}

    def register_offload(self, name: str, handler) -> None:
        """Register ``handler(board, caller_pid, args) -> value``."""
        if name in self._offloads:
            raise ValueError(f"offload {name!r} already registered")
        self._offloads[name] = handler

    def invoke(self, name: str, args, caller_pid: int):
        """Process-generator: the extend path, running an offload as a
        plain host call; returns OffloadResult."""
        yield self.env.timeout(self.service_ns)
        handler = self._offloads.get(name)
        if handler is None:
            return OffloadResult(ok=False, error=f"unknown offload {name!r}")
        return OffloadResult(ok=True, value=handler(self, caller_pid, args))
