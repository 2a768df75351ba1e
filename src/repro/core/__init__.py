"""CBoard memory-node model: the paper's primary contribution.

Subpackages implement the hardware virtual-memory system (overflow-free
hash page table, CAM TLB, bounded page-fault handling), the deterministic
fast-path pipeline, the ARM slow path (VA/PA allocation, shadow metadata),
MN-side synchronization primitives, the retry dedup buffer, and the extend
path for computation offloading.
"""

from repro.core.addr import (
    PAGE_SIZES,
    AccessType,
    Permission,
    PageSpec,
)
from repro.core.cboard import CBoard
from repro.core.mat import PATHS, Path
from repro.core.memory import DRAM
from repro.core.page_table import HashPageTable, PageTableEntry
from repro.core.simboard import SimBoard
from repro.core.tlb import TLB
from repro.core.va_allocator import AllocationError, VAAllocator

__all__ = [
    "AccessType",
    "AllocationError",
    "CBoard",
    "DRAM",
    "HashPageTable",
    "PAGE_SIZES",
    "PATHS",
    "PageSpec",
    "PageTableEntry",
    "Path",
    "Permission",
    "SimBoard",
    "TLB",
    "VAAllocator",
]
