"""Physical-page allocation strategies: a board's ``pa_allocator``.

Every strategy owns the pool of ``physical_pages`` page numbers and
implements the same small surface:

* ``allocate(pid=None) -> ppn`` / ``free(ppn, pid=None)``
* ``_reserved`` — pages the board's async buffers hold: out of the pool,
  not yet mapped.  The buffers keep this count; the strategy carries it.
* ``free_pages`` — pages the strategy could hand out right now.  For the
  arena strategy this *includes* pages stashed in per-process arenas, so
  the board-level conservation invariant (present + free + reserved ==
  physical) holds for every strategy.
* ``free_ppns()`` — iterator over every free page number (invariant
  sweeps use this instead of poking at strategy internals).
* ``slow_crossings`` — how many times the operation had to touch the
  global pool ("ARM slow-path crossings"); arenas exist to amortize this.
* ``fragmentation`` — strategy-specific external-fragmentation ratio in
  ``[0, 1]``.
* ``check()`` — internal-consistency audit returning ``(tag, detail)``
  problems; the verification layer folds these into invariant sweeps.
* ``COUNTERS`` — the strategy's own event counters, which a board
  registers as ``cboard.<mn>.alloc.<name>``.

:func:`make_pa_strategy` builds one by name from an
:class:`~repro.params.AllocParams`, which holds (and range-checks) every
tuning knob.

Double frees raise :class:`DoubleFreeError` in every strategy.  The
strategies are pure bookkeeping — no simulation events, no RNG — so a
run that only swaps the strategy stays bit-identical in everything the
allocator does not itself decide.
"""

from __future__ import annotations

import bisect
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

    name = "abstract"
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

    name = "freelist"

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


class SlabStrategy(PAStrategy):
    """Size-class slabs: the pool is carved into fixed runs of
    ``slab_pages`` contiguous pages; each slab is assigned to one of
    ``classes`` size classes on demand (processes hash onto classes) and
    serves single-page allocations from a per-slab LIFO free stack.

    Fully-free slabs detach from their class and return to a global
    reserve, so classes only fragment the pool while partially used.
    When a class has no partial slab and the reserve is empty, the
    allocation borrows from another class rather than reporting a false
    OOM.  ``fragmentation`` reports the fraction of free pages stranded
    inside class-assigned partial slabs.
    """

    name = "slab"
    COUNTERS = {"borrows": "allocations served from another class's slab"}

    def __init__(self, physical_pages: int, slab_pages: int, classes: int):
        super().__init__(physical_pages)
        self.slab_pages = min(slab_pages, physical_pages)
        self.classes = classes
        self._slab_free: List[List[int]] = []   # per-slab free stacks
        self._slab_cls: List[Optional[int]] = []  # class, None while in reserve
        self._slab_base: List[int] = []
        self._slab_size: List[int] = []
        base = 0
        while base < physical_pages:
            size = min(self.slab_pages, physical_pages - base)
            self._slab_base.append(base)
            self._slab_size.append(size)
            self._slab_free.append(list(range(base + size - 1, base - 1, -1)))
            self._slab_cls.append(None)
            base += size
        self._reserve: deque[int] = deque(range(len(self._slab_base)))
        self._partial: List[deque[int]] = [deque() for _ in range(classes)]
        self._free_set = set(range(physical_pages))
        self._free_count = physical_pages
        #: allocations served for each class (occupancy accounting)
        self.class_allocs = [0] * classes

    def class_of(self, pid: Optional[int]) -> int:
        return 0 if pid is None else pid % self.classes

    def _slab_of(self, ppn: int) -> int:
        return ppn // self.slab_pages

    @property
    def free_pages(self) -> int:
        return self._free_count

    def free_ppns(self) -> Iterator[int]:
        for free in self._slab_free:
            yield from free

    def is_free(self, ppn: int) -> bool:
        return ppn in self._free_set

    def _pop_partial(self, cls: int) -> Optional[int]:
        """First slab of ``cls`` with a free page, skipping stale entries."""
        queue = self._partial[cls]
        while queue:
            idx = queue[0]
            if self._slab_cls[idx] == cls and self._slab_free[idx]:
                return idx
            queue.popleft()  # reassigned or drained; drop the stale entry
        return None

    def allocate(self, pid: Optional[int] = None) -> int:
        if self._free_count == 0:
            raise OutOfMemoryError("no free physical pages")
        cls = self.class_of(pid)
        idx = self._pop_partial(cls)
        if idx is None and self._reserve:
            idx = self._reserve.popleft()
            self._slab_cls[idx] = cls
            self._partial[cls].append(idx)
        if idx is None:
            # Borrow from the first other class with space (never false-OOM).
            self.borrows += 1
            for other in range(self.classes):
                idx = self._pop_partial(other)
                if idx is not None:
                    break
        assert idx is not None  # _free_count > 0 guarantees a slab has space
        self.slow_crossings += 1
        ppn = self._slab_free[idx].pop()
        self._free_set.discard(ppn)
        self._free_count -= 1
        self.class_allocs[cls] += 1
        return ppn

    def _release(self, ppn: int, pid: Optional[int]) -> None:
        if ppn in self._free_set:
            raise DoubleFreeError(f"ppn {ppn} is already free")
        self.slow_crossings += 1
        idx = self._slab_of(ppn)
        was_full = not self._slab_free[idx]
        self._slab_free[idx].append(ppn)
        self._free_set.add(ppn)
        self._free_count += 1
        cls = self._slab_cls[idx]
        if cls is None:
            # Freed into a reserve slab (page was handed out before the
            # slab fully drained back): adopt it into the freer's class.
            cls = self.class_of(pid)
            self._slab_cls[idx] = cls
            self._partial[cls].append(idx)
            try:
                self._reserve.remove(idx)
            except ValueError:
                pass
        elif was_full:
            self._partial[cls].append(idx)
        if len(self._slab_free[idx]) == self._slab_size[idx]:
            # Fully free again: detach from the class, back to the reserve.
            self._slab_cls[idx] = None
            self._reserve.append(idx)

    def occupancy(self) -> Dict[int, dict]:
        """Per-class slab occupancy accounting."""
        out: Dict[int, dict] = {}
        for cls in range(self.classes):
            slabs = [i for i, c in enumerate(self._slab_cls) if c == cls]
            pages = sum(self._slab_size[i] for i in slabs)
            free = sum(len(self._slab_free[i]) for i in slabs)
            out[cls] = {
                "slabs": len(slabs),
                "pages": pages,
                "used": pages - free,
                "free": free,
                "allocs": self.class_allocs[cls],
            }
        return out

    @property
    def fragmentation(self) -> float:
        if self._free_count == 0:
            return 0.0
        stranded = sum(
            len(self._slab_free[i])
            for i, cls in enumerate(self._slab_cls) if cls is not None)
        return stranded / self._free_count

    def check(self) -> List[Tuple[str, str]]:
        problems: List[Tuple[str, str]] = []
        total_free = 0
        seen: set[int] = set()
        for idx, free in enumerate(self._slab_free):
            base, size = self._slab_base[idx], self._slab_size[idx]
            for ppn in free:
                if not base <= ppn < base + size:
                    problems.append((
                        "slab-stray-page",
                        f"slab {idx} holds ppn {ppn} outside [{base}, {base + size})"))
                if ppn in seen:
                    problems.append((
                        "slab-duplicate-free",
                        f"ppn {ppn} appears twice in slab free stacks"))
                seen.add(ppn)
            if len(free) > size:
                problems.append((
                    "slab-overfull",
                    f"slab {idx} has {len(free)} free pages but size {size}"))
            total_free += len(free)
        if total_free != self._free_count:
            problems.append((
                "slab-count-drift",
                f"free stacks hold {total_free} pages but counter says "
                f"{self._free_count}"))
        if seen != self._free_set:
            problems.append((
                "slab-set-drift",
                f"free set tracks {len(self._free_set)} pages but stacks hold "
                f"{len(seen)} distinct pages"))
        return problems


class BuddyStrategy(PAStrategy):
    """Binary buddy allocator: free space lives in power-of-two blocks,
    allocation splits the smallest sufficient block, free coalesces with
    the buddy (``base ^ size``) while possible.

    ``physical_pages`` need not be a power of two — the pool is covered
    by descending power-of-two top-level blocks, each self-aligned, so
    buddy arithmetic stays valid within every top block.

    ``fragmentation`` is the classic external-fragmentation ratio:
    ``1 - largest_free_block / free_pages``.
    """

    name = "buddy"

    def __init__(self, physical_pages: int):
        super().__init__(physical_pages)
        self.max_order = physical_pages.bit_length() - 1
        self._free_lists: List[List[int]] = [
            [] for _ in range(self.max_order + 1)]
        self._free_sets: List[set] = [set() for _ in range(self.max_order + 1)]
        self._alloc_order: Dict[int, int] = {}  # block base -> order
        self._free_count = 0
        base = 0
        remaining = physical_pages
        while remaining:
            order = remaining.bit_length() - 1
            self._insert_block(base, order)
            base += 1 << order
            remaining -= 1 << order

    def _insert_block(self, base: int, order: int) -> None:
        bisect.insort(self._free_lists[order], base)
        self._free_sets[order].add(base)
        self._free_count += 1 << order

    def _remove_block(self, base: int, order: int) -> None:
        idx = bisect.bisect_left(self._free_lists[order], base)
        self._free_lists[order].pop(idx)
        self._free_sets[order].discard(base)
        self._free_count -= 1 << order

    @property
    def free_pages(self) -> int:
        return self._free_count

    def free_ppns(self) -> Iterator[int]:
        for order, bases in enumerate(self._free_lists):
            for base in bases:
                yield from range(base, base + (1 << order))

    def is_free(self, ppn: int) -> bool:
        for order in range(self.max_order + 1):
            if (ppn & ~((1 << order) - 1)) in self._free_sets[order]:
                return True
        return False

    def _take(self, order: int) -> int:
        """Lowest-addressed free block of at least ``order``, split down."""
        for have in range(order, self.max_order + 1):
            if self._free_lists[have]:
                base = self._free_lists[have][0]
                self._remove_block(base, have)
                while have > order:
                    have -= 1
                    # Keep the lower half, free the upper buddy.
                    self._insert_block(base + (1 << have), have)
                return base
        raise OutOfMemoryError(
            f"no free block of order {order} ({1 << order} pages)")

    def allocate(self, pid: Optional[int] = None) -> int:
        self.slow_crossings += 1
        base = self._take(0)
        self._alloc_order[base] = 0
        return base

    def alloc_run(self, pages: int, pid: Optional[int] = None) -> int:
        """Allocate a naturally-aligned run of ``2^ceil(log2(pages))``."""
        if pages <= 0:
            raise ValueError(f"pages must be positive, got {pages}")
        order = (pages - 1).bit_length()
        if order > self.max_order:
            raise OutOfMemoryError(f"run of {pages} pages exceeds pool")
        self.slow_crossings += 1
        base = self._take(order)
        self._alloc_order[base] = order
        return base

    def _coalesce(self, base: int, order: int) -> None:
        while order < self.max_order:
            buddy = base ^ (1 << order)
            if buddy not in self._free_sets[order]:
                break
            self._remove_block(buddy, order)
            base = min(base, buddy)
            order += 1
        self._insert_block(base, order)

    def _release(self, ppn: int, pid: Optional[int]) -> None:
        order = self._alloc_order.pop(ppn, None)
        if order is None:
            for have, bases in enumerate(self._free_sets):
                for base in bases:
                    if base <= ppn < base + (1 << have):
                        raise DoubleFreeError(f"ppn {ppn} is already free")
            raise DoubleFreeError(
                f"ppn {ppn} is not the base of an allocated block")
        self.slow_crossings += 1
        self._coalesce(ppn, order)

    @property
    def fragmentation(self) -> float:
        """1 - largest_free_block / free_pages; 0 when empty or unsplit."""
        if self._free_count == 0:
            return 0.0
        return 1.0 - self.largest_free_block / self._free_count

    @property
    def largest_free_block(self) -> int:
        for order in range(self.max_order, -1, -1):
            if self._free_lists[order]:
                return 1 << order
        return 0

    def check(self) -> List[Tuple[str, str]]:
        problems: List[Tuple[str, str]] = []
        covered: set[int] = set()
        total = 0
        for order, bases in enumerate(self._free_lists):
            if set(bases) != self._free_sets[order]:
                problems.append((
                    "buddy-index-drift",
                    f"order-{order} list and set disagree"))
            if bases != sorted(bases):
                problems.append((
                    "buddy-unsorted", f"order-{order} free list out of order"))
            for base in bases:
                size = 1 << order
                if base % size:
                    problems.append((
                        "buddy-misaligned",
                        f"order-{order} block at {base} is not self-aligned"))
                if base + size > self.physical_pages:
                    problems.append((
                        "buddy-out-of-range",
                        f"order-{order} block at {base} exceeds pool"))
                pages = set(range(base, base + size))
                if covered & pages:
                    problems.append((
                        "buddy-overlap",
                        f"order-{order} block at {base} overlaps another free block"))
                covered |= pages
                total += size
                buddy = base ^ size
                if order < self.max_order and base < buddy \
                        and buddy in self._free_sets[order]:
                    problems.append((
                        "buddy-lost-coalesce",
                        f"order-{order} blocks {base} and {buddy} are both "
                        f"free but not merged"))
        if total != self._free_count:
            problems.append((
                "buddy-count-drift",
                f"free blocks cover {total} pages but counter says "
                f"{self._free_count}"))
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

    name = "arena"
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
    "slab": SlabStrategy,
    "buddy": BuddyStrategy,
    "arena": ArenaStrategy,
}


def make_pa_strategy(name: str, physical_pages: int,
                     params: AllocParams) -> PAStrategy:
    """Build the named PA strategy over ``physical_pages``, tuned by
    ``params``."""
    if name == "slab":
        return SlabStrategy(physical_pages, params.slab_pages,
                            params.slab_classes)
    if name == "arena":
        return ArenaStrategy(physical_pages, params.arena_batch_pages,
                             params.arena_stash_max)
    if name not in PA_STRATEGIES:
        raise ValueError(f"unknown PA strategy {name!r}; choose from "
                         f"{sorted(PA_STRATEGIES)}")
    return PA_STRATEGIES[name](physical_pages)
