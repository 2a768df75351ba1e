"""Baseline systems the paper evaluates against (section 7).

* :mod:`repro.baselines.rdma` — native one-sided RDMA on a commodity RNIC,
  with its finite QP/PTE/MR caches, PCIe miss penalties, MR registration,
  and the 16.8 ms ODP page-fault path.
* :mod:`repro.baselines.served` — memory nodes built from regular
  servers: HERD on host CPU cores, HERD-BF on a BlueField SmartNIC
  (chip-crossing penalty) and LegoOS (a software thread pool) are one
  ``ServedMemoryNode`` with a cost row per system.
* :mod:`repro.baselines.clover` — Clover adapted as passive disaggregated
  memory (PDM): no MN processing, client-side management, >= 2 RTT writes.
* :mod:`repro.baselines.cxl` — a CXL 2.0-style pooled load/store device
  with a coherence directory and one shared port.
* :mod:`repro.baselines.api` — the four verbs every model above (and Clio)
  answers, ``create_backend`` by name and ``sample_latencies``, the one
  timing loop of Figures 7, 10 and 11 and ``repro compare``.

These are timing models calibrated to the paper's cited measurements, not
packet-level simulations: the comparison figures depend on cache-capacity
cliffs, fault-path costs, and per-op handling budgets, all of which are
first-class here.
"""

from repro.baselines.api import BACKEND_NAMES, create_backend, sample_latencies
from repro.baselines.clover import CloverStore
from repro.baselines.cxl import CXLPool
from repro.baselines.rdma import MRRegistrationError, RDMAMemoryNode, MemoryRegion
from repro.baselines.served import ServedMemoryNode

__all__ = [
    "BACKEND_NAMES",
    "CXLPool",
    "CloverStore",
    "MRRegistrationError",
    "MemoryRegion",
    "RDMAMemoryNode",
    "ServedMemoryNode",
    "create_backend",
    "sample_latencies",
]
