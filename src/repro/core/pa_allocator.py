"""Physical page allocation and the async free-page buffer (section 4.3).

Single PA allocations are slow (complex free-list manipulation on the
ARM), so they never sit on the fault path.  Instead the ARM continuously
*reserves* free physical pages into a bounded async buffer; the hardware
page-fault handler pops a pre-reserved page in bounded time.  The refill
throughput exceeds line-rate fault arrival, so the buffer only underruns
when physical memory is exhausted (oversubscription pressure), which the
model surfaces explicitly.

The free-page bookkeeping itself is pluggable (:mod:`repro.alloc`): the
default FIFO free-list is bit-identical to the paper's allocator, while
slab / buddy / per-process-arena strategies trade fragmentation against
ARM slow-path crossings.  In arena mode each process additionally gets
its own async buffer (:class:`ArenaBufferBank`), so fault-path pops stop
contending on one shared queue.
"""

from __future__ import annotations

from typing import Optional, Union

from repro.alloc.pa_strategies import (
    DoubleFreeError,
    OutOfMemoryError,
    PAStrategy,
    make_pa_strategy,
)
from repro.sim import Environment, Store

__all__ = [
    "ArenaBufferBank",
    "AsyncBuffer",
    "DoubleFreeError",
    "OutOfMemoryError",
    "PAAllocator",
]


class PAAllocator:
    """Physical-page accounting over a pluggable strategy.

    The default ``"freelist"`` strategy reproduces the original FIFO
    free-list exactly (same pop/recycle order).  ``strategy`` accepts a
    name or a ready :class:`~repro.alloc.pa_strategies.PAStrategy`.
    """

    def __init__(self, physical_pages: int,
                 strategy: Union[str, PAStrategy] = "freelist",
                 alloc_params=None):
        if physical_pages <= 0:
            raise ValueError(f"physical_pages must be positive, got {physical_pages}")
        self.physical_pages = physical_pages
        if isinstance(strategy, PAStrategy):
            if strategy.physical_pages != physical_pages:
                raise ValueError("strategy pool size mismatch")
            self.strategy = strategy
        elif alloc_params is not None:
            self.strategy = make_pa_strategy(
                strategy, physical_pages,
                slab_pages=alloc_params.slab_pages,
                slab_classes=alloc_params.slab_classes,
                arena_batch_pages=alloc_params.arena_batch_pages,
                arena_stash_max=alloc_params.arena_stash_max)
        else:
            self.strategy = make_pa_strategy(strategy, physical_pages)
        self._reserved = 0  # pages sitting in async buffers

    @property
    def free_pages(self) -> int:
        return self.strategy.free_pages

    @property
    def used_pages(self) -> int:
        return self.physical_pages - self.free_pages - self._reserved

    @property
    def utilization(self) -> float:
        """Fraction of physical pages mapped or reserved."""
        return 1.0 - self.free_pages / self.physical_pages

    @property
    def slow_crossings(self) -> int:
        """Global-pool touches on the ARM (arenas exist to amortize these)."""
        return self.strategy.slow_crossings

    @property
    def fragmentation(self) -> float:
        """Strategy-reported external-fragmentation ratio in [0, 1]."""
        return self.strategy.fragmentation

    def allocate(self, pid: Optional[int] = None) -> int:
        """Take one free page (slow-path operation)."""
        return self.strategy.allocate(pid)

    def free(self, ppn: int, pid: Optional[int] = None) -> None:
        """Return a page to the free pool.

        Raises :class:`DoubleFreeError` (a ``ValueError``) if the page is
        already free — a double free would silently duplicate the page
        and break conservation.
        """
        if not 0 <= ppn < self.physical_pages:
            raise ValueError(f"ppn {ppn} out of range")
        self.strategy.free(ppn, pid)

    def free_ppns(self):
        """Iterator over every currently-free PPN (for invariant sweeps)."""
        return self.strategy.free_ppns()

    def is_free(self, ppn: int) -> bool:
        return self.strategy.is_free(ppn)

    def check(self):
        """Strategy-internal consistency audit; ``[]`` when healthy."""
        return self.strategy.check()

    def stats(self) -> dict:
        out = self.strategy.stats()
        out["reserved"] = self._reserved
        out["used_pages"] = self.used_pages
        return out


class AsyncBuffer:
    """Bounded buffer of pre-reserved free PPNs, refilled by the ARM.

    The fast path's fault handler calls :meth:`pop`; the refill process
    (:meth:`refill_process`) runs forever on the simulation environment,
    paying the slow-path allocation cost per page *off* the critical path.

    ``pid`` scopes the buffer to one process arena (``None`` = shared):
    the allocator's strategy sees it on every allocate/free so arena
    stashes stay process-local.
    """

    def __init__(self, env: Environment, allocator: PAAllocator,
                 depth: int, refill_ns: int, pid: Optional[int] = None):
        self.env = env
        self.allocator = allocator
        self.depth = depth
        self.refill_ns = refill_ns
        self.pid = pid
        self._store = Store(env, capacity=depth)
        self.underruns = 0
        self._proc = env.process(self.refill_process())

    def __len__(self) -> int:
        return len(self._store)

    def prefill(self) -> None:
        """Synchronously fill the buffer (board initialization)."""
        while (len(self._store.items) < self.depth
               and self.allocator.free_pages > 0):
            self.allocator._reserved += 1
            self._store.items.append(self.allocator.allocate(self.pid))
        # allocate() decrements _free; fix reserved accounting:
        # pages were moved free -> reserved, so _reserved counted above.

    def refill_process(self):
        """ARM background task: keep the buffer topped up."""
        while True:
            if (len(self._store.items) >= self.depth
                    or self.allocator.free_pages == 0):
                # Nothing to do; poll again after one allocation period.
                yield self.env.timeout(self.refill_ns)
                continue
            yield self.env.timeout(self.refill_ns)
            if self.allocator.free_pages == 0:
                continue
            ppn = self.allocator.allocate(self.pid)
            self.allocator._reserved += 1
            yield self._store.put(ppn)

    def pop(self):
        """Event yielding a pre-reserved PPN; immediate when stocked.

        An empty buffer (memory exhausted or refill outrun) registers an
        underrun — the condition the paper's design guarantees is rare.
        """
        if not self._store.items:
            self.underruns += 1
        get = self._store.get()

        def _account(event):
            if event.ok:
                self.allocator._reserved -= 1
        get.callbacks.append(_account)
        return get

    def return_unused(self, ppn: int) -> None:
        """Recycle a popped-but-unused page back to the free list."""
        self.allocator.free(ppn, self.pid)


class ArenaBufferBank:
    """Per-process async free-page buffers (arena strategy only).

    The fault handler asks :meth:`buffer_for` for the faulting process's
    buffer; buffers are created (and prefetched) lazily on first fault.
    All buffers share one :class:`PAAllocator`, so the board-level
    reservation accounting (``_reserved``) and conservation invariant
    are unchanged.  When one buffer runs dry while siblings still hold
    reserved pages, :meth:`rebalance_into` migrates a page ARM-locally
    so pressure in one process cannot strand pages reserved for another.
    """

    def __init__(self, env: Environment, allocator: PAAllocator,
                 depth: int, refill_ns: int):
        self.env = env
        self.allocator = allocator
        self.depth = depth
        self.refill_ns = refill_ns
        self._buffers: dict[int, AsyncBuffer] = {}
        self.created = 0
        self.rebalances = 0

    def __len__(self) -> int:
        return sum(len(buf) for buf in self._buffers.values())

    @property
    def underruns(self) -> int:
        return sum(buf.underruns for buf in self._buffers.values())

    def buffer_for(self, pid: int) -> AsyncBuffer:
        buf = self._buffers.get(pid)
        if buf is None:
            buf = AsyncBuffer(self.env, self.allocator, depth=self.depth,
                              refill_ns=self.refill_ns, pid=pid)
            buf.prefill()
            self._buffers[pid] = buf
            self.created += 1
        return buf

    def rebalance_into(self, pid: int) -> bool:
        """Move one reserved page from the fullest sibling to ``pid``.

        Must run *before* the caller's ``pop()`` so the migrated page is
        visible to the upcoming get; returns whether a page moved.
        """
        target = self.buffer_for(pid)
        if len(target._store.items) >= target.depth:
            return False
        victim = None
        for buf in self._buffers.values():
            if buf is target or not buf._store.items:
                continue
            if victim is None or len(buf._store.items) > len(victim._store.items):
                victim = buf
        if victim is None:
            return False
        ppn = victim._store.items.pop()
        target._store.items.append(ppn)
        self.rebalances += 1
        return True

    def stats(self) -> dict:
        return {
            "buffers": self.created,
            "pages_buffered": len(self),
            "underruns": self.underruns,
            "rebalances": self.rebalances,
        }
