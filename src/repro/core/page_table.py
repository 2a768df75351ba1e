"""The overflow-free hash-based page table (paper section 4.2).

All PTEs from *all* processes live in a single flat hash table whose size
is proportional to the MN's physical memory.  The table's location is
fixed, so the fast path reaches any PTE in **at most one DRAM access**: it
hashes (PID, VPN) to a bucket and fetches the whole K-slot bucket in one
access.  Overflow is impossible at runtime because the slow-path VA
allocator refuses to hand out any virtual range whose pages would not fit
their buckets (see :mod:`repro.core.va_allocator`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional

from repro.core.addr import PageSpec, Permission, pte_hash


@dataclass
class PageTableEntry:
    """One slot in a hash bucket.

    ``present`` means a physical page is mapped; a valid-but-not-present
    entry is an allocated virtual page awaiting its first touch (the state
    that triggers the hardware page-fault path).
    """

    pid: int
    vpn: int
    permission: Permission
    ppn: Optional[int] = None

    @property
    def present(self) -> bool:
        return self.ppn is not None


@dataclass
class _Bucket:
    slots: list[PageTableEntry] = field(default_factory=list)


class PageTableFullError(Exception):
    """A bucket had no free slot (only reachable if allocation-time
    overflow checking is bypassed)."""


class HashPageTable:
    """Flat, single, overflow-free page table for the whole MN.

    Parameters
    ----------
    physical_pages:
        Number of physical pages the MN hosts; with ``overprovision`` this
        fixes the total slot count (paper default: 2x extra slots).
    slots_per_bucket:
        K — the bucket is fetched whole in one DRAM access.
    """

    def __init__(self, physical_pages: int, slots_per_bucket: int = 4,
                 overprovision: float = 2.0, page_spec: PageSpec | None = None):
        if physical_pages <= 0:
            raise ValueError(f"physical_pages must be positive, got {physical_pages}")
        total_slots = max(slots_per_bucket,
                          int(physical_pages * overprovision))
        self.slots_per_bucket = slots_per_bucket
        self.num_buckets = -(-total_slots // slots_per_bucket)
        self.physical_pages = physical_pages
        self.page_spec = page_spec
        self._buckets: dict[int, _Bucket] = {}
        self._index: dict[tuple[int, int], PageTableEntry] = {}

    # -- size accounting -----------------------------------------------------

    @property
    def total_slots(self) -> int:
        return self.num_buckets * self.slots_per_bucket

    @property
    def entry_count(self) -> int:
        return len(self._index)

    def footprint_bytes(self, pte_bytes: int = 16) -> int:
        """Off-chip DRAM the table occupies (paper: 0.4% of physical memory
        with 4 MB pages)."""
        return self.total_slots * pte_bytes

    # -- hashing ---------------------------------------------------------------

    def bucket_of(self, pid: int, vpn: int) -> int:
        return pte_hash(pid, vpn, self.num_buckets)

    def bucket_occupancy(self, bucket_idx: int) -> int:
        bucket = self._buckets.get(bucket_idx)
        return len(bucket.slots) if bucket else 0

    # -- allocation-time overflow check ---------------------------------------

    def can_insert(self, pid: int, vpns: Iterable[int]) -> bool:
        """Would inserting all these (pid, vpn) pages overflow any bucket?

        This is the check the slow-path VA allocator runs before accepting
        a candidate virtual range; counting is done against current
        occupancy *plus* the candidate batch itself.
        """
        pending: dict[int, int] = {}
        for vpn in vpns:
            if (pid, vpn) in self._index:
                return False  # already mapped: the range is not free
            idx = self.bucket_of(pid, vpn)
            pending[idx] = pending.get(idx, 0) + 1
        return all(
            self.bucket_occupancy(idx) + count <= self.slots_per_bucket
            for idx, count in pending.items()
        )

    def first_conflict(self, pid: int, vpns: Iterable[int]) -> Optional[int]:
        """First VPN whose insertion would fail, or ``None`` if all fit.

        Accept/reject agrees exactly with :meth:`can_insert` (``None``
        iff ``can_insert`` is true); retry-aware VA policies use the
        conflicting VPN to jump their search past it.
        """
        pending: dict[int, int] = {}
        bucket_vpns: dict[int, int] = {}  # bucket -> first vpn landing in it
        for vpn in vpns:
            if (pid, vpn) in self._index:
                return vpn  # already mapped: the range is not free
            idx = self.bucket_of(pid, vpn)
            pending[idx] = pending.get(idx, 0) + 1
            bucket_vpns.setdefault(idx, vpn)
        for idx, count in pending.items():
            if self.bucket_occupancy(idx) + count > self.slots_per_bucket:
                return bucket_vpns[idx]
        return None

    # -- mutation ---------------------------------------------------------------

    def insert(self, pid: int, vpn: int, permission: Permission,
               ppn: Optional[int] = None) -> PageTableEntry:
        """Install a PTE; valid immediately, present only if ``ppn`` given."""
        key = (pid, vpn)
        if key in self._index:
            raise ValueError(f"PTE for pid={pid} vpn={vpn} already exists")
        idx = self.bucket_of(pid, vpn)
        bucket = self._buckets.setdefault(idx, _Bucket())
        if len(bucket.slots) >= self.slots_per_bucket:
            raise PageTableFullError(
                f"bucket {idx} overflow inserting pid={pid} vpn={vpn} "
                "(allocation-time checking was bypassed)")
        entry = PageTableEntry(pid=pid, vpn=vpn, permission=permission, ppn=ppn)
        bucket.slots.append(entry)
        self._index[key] = entry
        return entry

    def lookup(self, pid: int, vpn: int) -> Optional[PageTableEntry]:
        """Fetch the PTE; in hardware this is exactly one DRAM bucket read."""
        return self._index.get((pid, vpn))

    def set_present(self, pid: int, vpn: int, ppn: int) -> PageTableEntry:
        """Map a physical page into an existing valid PTE (fault handling)."""
        entry = self._index.get((pid, vpn))
        if entry is None:
            raise KeyError(f"no PTE for pid={pid} vpn={vpn}")
        if entry.present:
            raise ValueError(f"PTE pid={pid} vpn={vpn} already present (ppn={entry.ppn})")
        entry.ppn = ppn
        return entry

    def remove(self, pid: int, vpn: int) -> PageTableEntry:
        """Drop a PTE (rfree); returns the removed entry."""
        key = (pid, vpn)
        entry = self._index.pop(key, None)
        if entry is None:
            raise KeyError(f"no PTE for pid={pid} vpn={vpn}")
        bucket = self._buckets[self.bucket_of(pid, vpn)]
        bucket.slots.remove(entry)
        return entry

    def entries_for_pid(self, pid: int) -> list[PageTableEntry]:
        return [entry for (epid, _), entry in self._index.items() if epid == pid]
