"""Physical page allocation and the async free-page buffer (section 4.3).

Single PA allocations are slow (complex free-list manipulation on the
ARM), so they never sit on the fault path.  Instead the ARM continuously
*reserves* free physical pages into a bounded async buffer; the hardware
page-fault handler pops a pre-reserved page in bounded time.  The refill
throughput exceeds line-rate fault arrival, so the buffer only underruns
when physical memory is exhausted (oversubscription pressure), which the
model surfaces explicitly.

The free-page bookkeeping itself is a pluggable
:class:`~repro.alloc.pa_strategies.PAStrategy`: the default FIFO
free-list is bit-identical to the paper's allocator, while per-process
arenas trade pages fenced in stashes against ARM slow-path crossings.
The board's buffers are one :class:`BufferBank`: a shared buffer and,
in arena mode, one more per process, so fault-path pops stop
contending on one shared queue.
"""

from __future__ import annotations

from typing import Optional

from repro.alloc.pa_strategies import PAStrategy
from repro.sim import Environment, Store

__all__ = ["AsyncBuffer", "BufferBank"]


class AsyncBuffer:
    """Bounded buffer of pre-reserved free PPNs, refilled by the ARM.

    The fast path's fault handler calls :meth:`pop`; the refill process
    (:meth:`refill_process`) runs forever on the simulation environment,
    paying the slow-path allocation cost per page *off* the critical path.

    ``pid`` scopes the buffer to one process arena (``None`` = shared):
    the allocator's strategy sees it on every allocate/free so arena
    stashes stay process-local.
    """

    def __init__(self, env: Environment, allocator: PAStrategy,
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


class BufferBank:
    """Every async buffer of one board, over one strategy.

    The fault handler asks :meth:`buffer_for` for the faulting process's
    buffer.  That is the ``shared`` buffer, unless ``process_depth`` is
    set (arena mode): then each process gets its own, created (and
    prefetched) lazily on first fault.  All buffers share one strategy,
    so the board-level reservation accounting (``_reserved``) and
    conservation invariant cover them all.  When one buffer runs dry
    while another still holds reserved pages, :meth:`rebalance_into`
    migrates a page ARM-locally, so pressure in one process cannot
    strand pages reserved for another, or for the shared buffer.
    """

    def __init__(self, env: Environment, allocator: PAStrategy,
                 shared_depth: int, refill_ns: int,
                 process_depth: Optional[int] = None):
        self.env = env
        self.allocator = allocator
        self.refill_ns = refill_ns
        self.process_depth = process_depth
        self.shared = AsyncBuffer(env, allocator, depth=shared_depth,
                                  refill_ns=refill_ns)
        self.shared.prefill()
        self._buffers: dict[int, AsyncBuffer] = {}
        self.created = 0
        self.rebalances = 0

    def _all(self) -> list[AsyncBuffer]:
        """The per-process buffers in creation order, then the shared one
        (last, so a tie still goes to the per-process buffer)."""
        return [*self._buffers.values(), self.shared]

    @property
    def underruns(self) -> int:
        return sum(buf.underruns for buf in self._all())

    def buffer_for(self, pid: int) -> AsyncBuffer:
        if self.process_depth is None:
            return self.shared
        buf = self._buffers.get(pid)
        if buf is None:
            buf = AsyncBuffer(self.env, self.allocator,
                              depth=self.process_depth,
                              refill_ns=self.refill_ns, pid=pid)
            buf.prefill()
            self._buffers[pid] = buf
            self.created += 1
        return buf

    def rebalance_into(self, pid: int) -> bool:
        """Move one reserved page from the fullest other buffer to
        ``pid``'s (the first on a tie).

        Must run *before* the caller's ``pop()`` so the migrated page is
        visible to the upcoming get; returns whether a page moved.
        """
        target = self.buffer_for(pid)
        if len(target._store.items) >= target.depth:
            return False
        victim = None
        for buf in self._all():
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
