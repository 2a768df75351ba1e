"""Physical-page allocation strategies: a board's ``pa_allocator``.

Two strategies own the pool of ``physical_pages`` page numbers: the
paper's FIFO free list (``freelist``) and per-process arenas over it
(``arena``), which change *when* the ARM slow path runs.  Which page a
fault gets never feeds back into timing, so a strategy that only picks
a different page is not worth a class.  Both implement the same small
surface:

* ``allocate(pid=None) -> ppn`` / ``free(ppn, pid=None)``
* ``_reserved`` — pages the board's async buffers hold: out of the pool,
  not yet mapped.  The buffers keep this count; the strategy carries it.
* ``free_pages`` — pages the strategy could hand out right now.  For the
  arena strategy this *includes* pages stashed in per-process arenas, so
  the board-level conservation invariant (present + free + reserved ==
  physical) holds for both.
* ``free_ppns()`` — iterator over every free page number (invariant
  sweeps use this instead of poking at strategy internals).
* ``slow_crossings`` — how many times the operation had to touch the
  global pool ("ARM slow-path crossings"); arenas exist to amortize this.
* ``fragmentation`` — fraction of free pages held outside the global
  pool (in arena stashes), in ``[0, 1]``; 0 for the free list.
* ``check()`` — internal-consistency audit returning ``(tag, detail)``
  problems; the verification layer folds these into invariant sweeps.
* ``COUNTERS`` — the strategy's own event counters, which a board
  registers as ``cboard.<mn>.alloc.<name>``.

:func:`make_pa_strategy` builds one by name from an
:class:`~repro.params.AllocParams`, which holds (and range-checks) every
tuning knob.

Double frees raise :class:`DoubleFreeError` in both strategies.  They
are pure bookkeeping — no simulation events, no RNG.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Dict, Iterator, List, Optional, Tuple

if TYPE_CHECKING:
    from repro.params import AllocParams


class OutOfMemoryError(Exception):
    """The MN has no free physical pages left."""


class DoubleFreeError(ValueError):
    """A physical page was freed while already free (or never allocated)."""


class PAStrategy:
    """Common surface for physical-page allocation strategies."""

    #: ``name -> help`` of the strategy's own event counters.
    COUNTERS: Dict[str, str] = {}

    def __init__(self, physical_pages: int):
        if physical_pages <= 0:
            raise ValueError(f"physical_pages must be positive, got {physical_pages}")
        self.physical_pages = physical_pages
        #: Operations that had to cross into the global pool on the ARM.
        self.slow_crossings = 0
        #: Pages sitting in the board's async buffers.
        self._reserved = 0
        for counter in self.COUNTERS:
            setattr(self, counter, 0)

    # -- required operations ---------------------------------------------------

    def allocate(self, pid: Optional[int] = None) -> int:
        raise NotImplementedError

    def free(self, ppn: int, pid: Optional[int] = None) -> None:
        """Return a page to the pool.

        Raises ``ValueError`` for a page outside the pool and
        :class:`DoubleFreeError` (a ``ValueError``) for one already free —
        a double free would silently duplicate the page and break
        conservation.
        """
        if not 0 <= ppn < self.physical_pages:
            raise ValueError(f"ppn {ppn} out of range")
        self._release(ppn, pid)

    def _release(self, ppn: int, pid: Optional[int]) -> None:
        raise NotImplementedError

    @property
    def free_pages(self) -> int:
        raise NotImplementedError

    def free_ppns(self) -> Iterator[int]:
        raise NotImplementedError

    def is_free(self, ppn: int) -> bool:
        """Whether ``ppn`` is currently free (O(1)-ish membership probe)."""
        raise NotImplementedError

    # -- metrics / audits --------------------------------------------------------

    @property
    def utilization(self) -> float:
        """Fraction of physical pages mapped or reserved."""
        return 1.0 - self.free_pages / self.physical_pages

    @property
    def fragmentation(self) -> float:
        """External-fragmentation ratio in [0, 1]; 0 when not meaningful."""
        return 0.0

    def check(self) -> List[Tuple[str, str]]:
        """Audit internal bookkeeping; returns (tag, detail) problems."""
        return []


class FreeListStrategy(PAStrategy):
    """The paper's FIFO free-list — the default, bit-identical to the
    original allocator: pages come off the head in ascending order
    at boot and freed pages recycle in FIFO order.

    A shadow set detects double frees without perturbing list order.
    """

    def __init__(self, physical_pages: int):
        super().__init__(physical_pages)
        self._free: deque[int] = deque(range(physical_pages))
        self._free_set = set(self._free)

    @property
    def free_pages(self) -> int:
        return len(self._free)

    def free_ppns(self) -> Iterator[int]:
        return iter(self._free)

    def is_free(self, ppn: int) -> bool:
        return ppn in self._free_set

    def allocate(self, pid: Optional[int] = None) -> int:
        if not self._free:
            raise OutOfMemoryError("no free physical pages")
        self.slow_crossings += 1
        ppn = self._free.popleft()
        self._free_set.discard(ppn)
        return ppn

    def _release(self, ppn: int, pid: Optional[int]) -> None:
        if ppn in self._free_set:
            raise DoubleFreeError(f"ppn {ppn} is already free")
        self.slow_crossings += 1
        self._free.append(ppn)
        self._free_set.add(ppn)

    def check(self) -> List[Tuple[str, str]]:
        problems: List[Tuple[str, str]] = []
        if len(self._free) != len(self._free_set):
            problems.append((
                "freelist-duplicate",
                f"free list holds {len(self._free)} entries but only "
                f"{len(self._free_set)} distinct pages"))
        return problems


class ArenaStrategy(PAStrategy):
    """jemalloc-style per-process arenas over a global FIFO free list.

    Each PID gets a private LIFO stash of pages.  ``allocate`` serves
    from the stash for free; an empty stash refills ``batch_pages`` from
    the global pool in *one* slow-path crossing.  ``free`` pushes onto
    the stash; a stash over ``stash_max`` lazily spills its oldest half
    back to the global pool, again one crossing.  Small-object churn
    that stays within a process therefore costs ~``1/batch_pages`` of
    the crossings the plain free list pays.

    When the global pool drains, allocation reclaims from the largest
    stash instead of reporting a false OOM, so ``free_pages`` (global +
    stashed) going to zero is the only true out-of-memory condition.
    """

    COUNTERS = {
        "batch_refills": "empty stashes refilled from the global pool",
        "spills": "overfull stashes spilled back to the global pool",
        "reclaims": "pages taken from another arena's stash",
    }

    def __init__(self, physical_pages: int, batch_pages: int, stash_max: int):
        super().__init__(physical_pages)
        self.base = FreeListStrategy(physical_pages)
        self.batch_pages = min(batch_pages, physical_pages)
        self.stash_max = stash_max
        self._stash: Dict[Optional[int], List[int]] = {}
        self._stashed_set: set[int] = set()

    @property
    def free_pages(self) -> int:
        return self.base.free_pages + len(self._stashed_set)

    def free_ppns(self) -> Iterator[int]:
        yield from self.base.free_ppns()
        for stash in self._stash.values():
            yield from stash

    def is_free(self, ppn: int) -> bool:
        return ppn in self._stashed_set or self.base.is_free(ppn)

    def allocate(self, pid: Optional[int] = None) -> int:
        stash = self._stash.setdefault(pid, [])
        if stash:
            ppn = stash.pop()
            self._stashed_set.discard(ppn)
            return ppn
        # One crossing refills a whole batch from the global pool.
        grabbed: List[int] = []
        for _ in range(self.batch_pages):
            if self.base.free_pages == 0:
                break
            grabbed.append(self.base.allocate(pid))
        if grabbed:
            self.slow_crossings += 1
            self.batch_refills += 1
            stash.extend(grabbed)
            self._stashed_set.update(grabbed)
            ppn = stash.pop()
            self._stashed_set.discard(ppn)
            return ppn
        # Global pool dry: reclaim from the fullest sibling arena (the
        # first on a tie).  The victim is the stash itself, not its pid:
        # None is a pid, the board's shared buffer's.
        victim = None
        for pages in self._stash.values():
            if pages and (victim is None or len(pages) > len(victim)):
                victim = pages
        if victim is None:
            raise OutOfMemoryError("no free physical pages")
        self.slow_crossings += 1
        self.reclaims += 1
        ppn = victim.pop()
        self._stashed_set.discard(ppn)
        return ppn

    def _release(self, ppn: int, pid: Optional[int]) -> None:
        if ppn in self._stashed_set:
            raise DoubleFreeError(f"ppn {ppn} is already free (stashed)")
        if self.base.is_free(ppn):
            raise DoubleFreeError(f"ppn {ppn} is already free")
        stash = self._stash.setdefault(pid, [])
        stash.append(ppn)
        self._stashed_set.add(ppn)
        if len(stash) > self.stash_max:
            # Lazy spill: oldest half goes back global in one crossing.
            spill, keep = stash[:len(stash) // 2], stash[len(stash) // 2:]
            self._stash[pid] = keep
            self.slow_crossings += 1
            self.spills += 1
            for page in spill:
                self._stashed_set.discard(page)
                self.base.free(page, pid)

    @property
    def fragmentation(self) -> float:
        """Fraction of free pages fenced inside per-process stashes."""
        total = self.free_pages
        if total == 0:
            return 0.0
        return len(self._stashed_set) / total

    def check(self) -> List[Tuple[str, str]]:
        problems = self.base.check()
        seen: set[int] = set()
        for key, stash in self._stash.items():
            for ppn in stash:
                if ppn in seen:
                    problems.append((
                        "arena-duplicate-stash",
                        f"ppn {ppn} stashed twice (arena {key})"))
                seen.add(ppn)
        if seen != self._stashed_set:
            problems.append((
                "arena-set-drift",
                f"stash set tracks {len(self._stashed_set)} pages but stashes "
                f"hold {len(seen)} distinct pages"))
        overlap = seen & set(self.base.free_ppns())
        if overlap:
            problems.append((
                "arena-double-account",
                f"{len(overlap)} pages both stashed and globally free "
                f"(e.g. {sorted(overlap)[:4]})"))
        return problems


PA_STRATEGIES = {
    "freelist": FreeListStrategy,
    "arena": ArenaStrategy,
}


def make_pa_strategy(name: str, physical_pages: int,
                     params: AllocParams) -> PAStrategy:
    """Build the named PA strategy over ``physical_pages``, tuned by
    ``params``."""
    if name == "arena":
        return ArenaStrategy(physical_pages, params.arena_batch_pages,
                             params.arena_stash_max)
    if name not in PA_STRATEGIES:
        raise ValueError(f"unknown PA strategy {name!r}; choose from "
                         f"{sorted(PA_STRATEGIES)}")
    return PA_STRATEGIES[name](physical_pages)
