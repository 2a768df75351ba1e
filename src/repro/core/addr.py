"""Address-space types and page arithmetic.

Clio gives each application process a *remote virtual address space* (RAS)
identified by a global PID.  Allocation and translation happen at page
granularity (configurable size, 4 MB huge pages by default), while reads
and writes are byte-granular.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.params import KB, MB

#: Page sizes CBoard supports (the paper: "a configurable set of page sizes").
PAGE_SIZES = (4 * KB, 64 * KB, 2 * MB, 4 * MB, 16 * MB)


class Permission(enum.Flag):
    """Per-allocation access permissions, checked in the fast path."""

    NONE = 0
    READ = enum.auto()
    WRITE = enum.auto()
    READ_WRITE = READ | WRITE


class AccessType(enum.Enum):
    """What a data-path request wants to do with memory."""

    READ = "read"
    WRITE = "write"
    ATOMIC = "atomic"

    @property
    def required_permission(self) -> Permission:
        if self is AccessType.READ:
            return Permission.READ
        return Permission.WRITE


class ProtectionError(Exception):
    """Raised when a request fails the fast path's permission check."""


@dataclass(frozen=True)
class PageSpec:
    """Page arithmetic for one configured page size."""

    page_size: int
    offset_bits: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.page_size <= 0 or self.page_size & (self.page_size - 1):
            raise ValueError(f"page size must be a power of two, got {self.page_size}")
        # Computed once: page_number() runs three times per data op.
        object.__setattr__(self, "offset_bits",
                           self.page_size.bit_length() - 1)

    def page_number(self, addr: int) -> int:
        return addr >> self.offset_bits

    def page_offset(self, addr: int) -> int:
        return addr & (self.page_size - 1)

    def page_base(self, addr: int) -> int:
        return addr & ~(self.page_size - 1)

    def pages_spanned(self, addr: int, size: int) -> range:
        """Page numbers an [addr, addr+size) access touches (size >= 1)."""
        if size <= 0:
            raise ValueError(f"size must be positive, got {size}")
        first = self.page_number(addr)
        last = self.page_number(addr + size - 1)
        return range(first, last + 1)

    def round_up(self, size: int) -> int:
        """Smallest multiple of the page size >= size."""
        if size <= 0:
            raise ValueError(f"size must be positive, got {size}")
        return (size + self.page_size - 1) & ~(self.page_size - 1)

    def page_count(self, size: int) -> int:
        return self.round_up(size) // self.page_size


def jenkins_mix(key: int) -> int:
    """A 64-bit avalanche mix (splitmix64 finalizer).

    Stands in for the Jenkins hash the paper cites: cheap in hardware, very
    low collision rate, and fully deterministic for reproducible runs.
    """
    key &= (1 << 64) - 1
    key = (key ^ (key >> 30)) * 0xBF58476D1CE4E5B9 & ((1 << 64) - 1)
    key = (key ^ (key >> 27)) * 0x94D049BB133111EB & ((1 << 64) - 1)
    return key ^ (key >> 31)


def pte_hash(pid: int, vpn: int, num_buckets: int) -> int:
    """Bucket index for a (PID, virtual page number) pair."""
    if num_buckets <= 0:
        raise ValueError(f"num_buckets must be positive, got {num_buckets}")
    return jenkins_mix((pid << 40) ^ vpn) % num_buckets
