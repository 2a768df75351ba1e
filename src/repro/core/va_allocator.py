"""Slow-path virtual address allocation (paper section 4.2).

The ARM software keeps a per-process tree of allocated VA ranges (the
analogue of Linux's vma tree).  ``ralloc`` finds a free range, then checks
that inserting every page of the candidate range into the hash page table
would overflow no bucket; if it would, it searches again from the next
candidate.  The retry count is the quantity Figure 13 reports: zero below
half utilization, bounded (~60) near full.

This trades allocation-time retries (slow path, microseconds each) for a
fast path that never sees a hash overflow — the core of the
"overflow-free" design.
"""

from __future__ import annotations

import bisect
from collections import Counter
from dataclasses import dataclass
from typing import Optional, Union

from repro.alloc.va_policies import VAPolicy, make_va_policy
from repro.core.addr import PageSpec, Permission
from repro.core.page_table import HashPageTable

#: First byte of every RAS; VA 0 stays unmapped so NULL faults loudly.
VA_BASE = 1 << 22
#: RAS spans 48 bits, like a conventional virtual address space.
VA_LIMIT = 1 << 48


class AllocationError(Exception):
    """No virtual range satisfying the overflow-free constraint was found."""


@dataclass
class Allocation:
    """One allocated RAS range (built once, never changed; not ``frozen``,
    which would set each field through ``object.__setattr__``)."""

    va: int
    size: int            # bytes, page-aligned
    permission: Permission

    @property
    def end(self) -> int:
        return self.va + self.size


@dataclass
class AllocationOutcome:
    """Result of a ralloc: the range plus slow-path cost accounting."""

    allocation: Allocation
    retries: int          # failed candidate ranges before success


class _ProcessSpace:
    """Sorted allocated-range bookkeeping for one PID (the 'vma tree')."""

    def __init__(self) -> None:
        self.starts: list[int] = []
        self.allocations: list[Allocation] = []

    def overlapping(self, va: int, size: int) -> Optional[Allocation]:
        idx = bisect.bisect_right(self.starts, va) - 1
        if idx >= 0 and self.allocations[idx].end > va:
            return self.allocations[idx]
        if idx + 1 < len(self.allocations) and self.allocations[idx + 1].va < va + size:
            return self.allocations[idx + 1]
        return None

    def insert(self, allocation: Allocation) -> None:
        idx = bisect.bisect_left(self.starts, allocation.va)
        self.starts.insert(idx, allocation.va)
        self.allocations.insert(idx, allocation)

    def remove(self, va: int) -> Allocation:
        idx = bisect.bisect_left(self.starts, va)
        if idx >= len(self.starts) or self.starts[idx] != va:
            raise KeyError(f"no allocation at va={va:#x}")
        self.starts.pop(idx)
        return self.allocations.pop(idx)

    def find(self, va: int) -> Optional[Allocation]:
        """Allocation containing ``va``, if any."""
        idx = bisect.bisect_right(self.starts, va) - 1
        if idx >= 0 and self.allocations[idx].va <= va < self.allocations[idx].end:
            return self.allocations[idx]
        return None

    def next_gap(self, from_va: int, size: int) -> int:
        """First va >= from_va where [va, va+size) overlaps no allocation."""
        va = from_va
        while True:
            hit = self.overlapping(va, size)
            if hit is None:
                return va
            va = hit.end


class VAAllocator:
    """Per-process VA range allocator with hash-overflow avoidance."""

    def __init__(self, page_table: HashPageTable, page_spec: PageSpec,
                 max_retries: int = 4096,
                 policy: Union[str, VAPolicy] = "first-fit"):
        self.page_table = page_table
        self.page_spec = page_spec
        self.max_retries = max_retries
        self.policy = policy if isinstance(policy, VAPolicy) \
            else make_va_policy(policy)
        self._spaces: dict[int, _ProcessSpace] = {}
        self.total_retries = 0
        self.total_allocations = 0
        self.failed_allocations = 0
        #: retries-per-successful-alloc distribution (Fig. 13 material)
        self.retry_histogram: Counter[int] = Counter()

    def _space(self, pid: int) -> _ProcessSpace:
        return self._spaces.setdefault(pid, _ProcessSpace())

    # -- allocation ------------------------------------------------------------

    def allocate(self, pid: int, size: int,
                 permission: Permission = Permission.READ_WRITE,
                 fixed_va: Optional[int] = None) -> AllocationOutcome:
        """Allocate a page-aligned RAS range of at least ``size`` bytes.

        ``fixed_va`` implements mmap(MAP_FIXED)-style requests; per the
        paper's stated limitation, if the fixed range cannot be inserted
        without overflow Clio falls back to choosing a new range.
        """
        if size <= 0:
            raise ValueError(f"size must be positive, got {size}")
        alloc_size = self.page_spec.round_up(size)
        pages = alloc_size // self.page_spec.page_size
        space = self._space(pid)
        retries = 0

        if fixed_va is not None:
            if self.page_spec.page_offset(fixed_va):
                raise ValueError(f"fixed_va {fixed_va:#x} is not page-aligned")
            candidate = fixed_va
            if (space.overlapping(candidate, alloc_size) is None
                    and self._fits(pid, candidate, pages)):
                return self._commit(space, pid, candidate, alloc_size,
                                    pages, permission, retries)
            retries += 1  # the fixed range failed; fall through to search

        # The search policy yields candidate VAs; each failed probe sends
        # the first conflicting VPN back so retry-aware policies can steer.
        gen = self.policy.candidates(
            space, pid, alloc_size, self.page_spec.page_size,
            VA_BASE, VA_LIMIT, self.page_table)
        candidate = next(gen, None)
        while candidate is not None and retries <= self.max_retries:
            conflict = self._first_conflict(pid, candidate, pages)
            if conflict is None:
                outcome = self._commit(space, pid, candidate, alloc_size,
                                       pages, permission, retries)
                self.policy.committed(pid, candidate, alloc_size)
                return outcome
            retries += 1
            try:
                candidate = gen.send(conflict)
            except StopIteration:
                candidate = None

        self.total_retries += retries
        self.failed_allocations += 1
        raise AllocationError(
            f"pid={pid}: no overflow-free VA range for {size} bytes "
            f"after {retries} retries")

    def _fits(self, pid: int, va: int, pages: int) -> bool:
        first_vpn = self.page_spec.page_number(va)
        return self.page_table.can_insert(
            pid, range(first_vpn, first_vpn + pages))

    def _first_conflict(self, pid: int, va: int, pages: int) -> Optional[int]:
        first_vpn = self.page_spec.page_number(va)
        return self.page_table.first_conflict(
            pid, range(first_vpn, first_vpn + pages))

    def _commit(self, space: _ProcessSpace, pid: int, va: int, alloc_size: int,
                pages: int, permission: Permission,
                retries: int) -> AllocationOutcome:
        first_vpn = self.page_spec.page_number(va)
        for vpn in range(first_vpn, first_vpn + pages):
            self.page_table.insert(pid, vpn, permission)  # valid, not present
        allocation = Allocation(va, alloc_size, permission)
        space.insert(allocation)
        self.total_retries += retries
        self.total_allocations += 1
        self.retry_histogram[retries] += 1
        return AllocationOutcome(allocation, retries)

    # -- free --------------------------------------------------------------------

    def free(self, pid: int, va: int) -> tuple[Allocation, list[int]]:
        """Release a range; returns the allocation and the PPNs to recycle."""
        space = self._space(pid)
        allocation = space.remove(va)
        first_vpn = self.page_spec.page_number(allocation.va)
        pages = allocation.size // self.page_spec.page_size
        freed_ppns = []
        for vpn in range(first_vpn, first_vpn + pages):
            entry = self.page_table.remove(pid, vpn)
            if entry.present:
                freed_ppns.append(entry.ppn)
        self.policy.freed(pid, allocation.va, allocation.size)
        return allocation, freed_ppns

    # -- queries ------------------------------------------------------------------

    def lookup(self, pid: int, va: int) -> Optional[Allocation]:
        return self._space(pid).find(va)

    def allocated_bytes(self, pid: int) -> int:
        return sum(a.size for a in self._space(pid).allocations)
