"""Distributed memory-node platform (paper section 3.3).

The paper scopes a multi-CBoard platform to future work but sketches the
design it would follow (LegoOS-style): a **global controller** manages the
whole memory space at coarse granularity while each MN manages its own
memory at fine granularity; MNs may be over-committed, and an MN under
memory pressure migrates data to another MN, coordinated by the
controller.  MN failure handling is left to applications.

This subpackage implements that sketch over unmodified CBoards.
"""

from repro.distributed.controller import (
    GlobalController,
    LeaseLost,
    PlacementError,
    RegionLease,
)
from repro.distributed.space import DistributedAddressSpace

__all__ = [
    "DistributedAddressSpace",
    "GlobalController",
    "LeaseLost",
    "PlacementError",
    "RegionLease",
]
