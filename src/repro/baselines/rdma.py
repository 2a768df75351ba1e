"""Native one-sided RDMA baseline (paper section 2.2, Figures 4-7, 10-12).

The model captures the mechanisms behind every RDMA limitation the paper
measures:

* **QP scalability** (Figure 4): per-connection state is cached on-chip;
  beyond ``qp_cache_entries`` active QPs, each op pays a PCIe round trip
  to fetch QP state from host memory.
* **PTE/MR scalability** (Figure 5): the NIC caches MTT entries and MR
  metadata; working sets beyond the cache degrade ~4x (the paper's cited
  measurement), and registration fails outright past 2^18 MRs.
* **Latency variation** (Figure 6): an ODP (on-demand paging) access that
  faults traps into the host OS — 16.8 ms, about 14100x a hit.
* **Registration cost** (Figure 12): base verbs cost plus per-4KB-page
  pinning.

The node also answers the four comparison verbs (``alloc / free / load /
store``, see :mod:`repro.baselines.api`): an allocation is a pinned MR,
and loads/stores are one-sided verbs on the QP registered with it, so
each allocation costs a connection as well as an MR.

Latency jitter follows a light base distribution with a rare heavy tail
(host/NIC queueing), giving RDMA its long CDF tail in Figure 7.
"""

from __future__ import annotations

import bisect
import itertools
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Optional

from repro.core.memory import DRAM
from repro.params import ClioParams, SEC
from repro.sim import Environment, Resource
from repro.sim.rng import RandomStream


class MRRegistrationError(Exception):
    """The RNIC cannot register more memory regions."""


class RemoteAccessError(ValueError):
    """A remote access named memory that is not allocated (or freed), or
    a range outside it -- what an RNIC reports as a remote access error.
    LegoOS, Clover and HERD raise it too."""


def check_access(allocated: bool, what: str, length: int, offset: int,
                 size: int) -> None:
    """Raise :class:`RemoteAccessError` unless ``[offset, offset + size)``
    lies inside a live allocation of ``length`` bytes."""
    if not allocated:
        raise RemoteAccessError(f"{what} is not allocated (freed?)")
    if offset < 0 or offset + size > length:
        raise RemoteAccessError(
            f"access [{offset}, {offset + size}) outside {what} of "
            f"{length} bytes")


class Extents:
    """The live ``(base, size)`` extents of a ``capacity``-unit space.

    ``take`` carves fresh space until the end is reached, then the first
    freed hole that fits (freed neighbours merge), and raises
    ``MemoryError`` when nothing fits.  Fresh space first keeps a run that
    never frees at the addresses a plain bump allocator gives.
    """

    def __init__(self, capacity: int):
        self.capacity = capacity
        self._end = 0                          # fresh space starts here
        self._holes: list[list[int]] = []      # freed [base, size], by base
        self._live: set[tuple[int, int]] = set()

    def take(self, size: int) -> tuple[int, int]:
        if size <= 0:
            raise ValueError(f"size must be positive, got {size}")
        if self._end + size <= self.capacity:
            base = self._end
            self._end += size
        else:
            if self._end < self.capacity:      # the end is reached
                self._hole(self._end, self.capacity - self._end)
                self._end = self.capacity
            hole = next((hole for hole in self._holes if hole[1] >= size),
                        None)
            if hole is None:
                raise MemoryError(f"no free extent of {size} in "
                                  f"{self.capacity}")
            base = hole[0]
            hole[0] += size
            hole[1] -= size
            if not hole[1]:
                self._holes.remove(hole)
        extent = (base, size)
        self._live.add(extent)
        return extent

    def release(self, extent: tuple[int, int]) -> None:
        self._live.remove(extent)
        self._hole(*extent)

    def _hole(self, base: int, size: int) -> None:
        holes = self._holes
        index = bisect.bisect(holes, [base])
        if index < len(holes) and holes[index][0] == base + size:
            size += holes.pop(index)[1]
        if index and sum(holes[index - 1]) == base:
            holes[index - 1][1] += size
        else:
            holes.insert(index, [base, size])

    def address(self, extent: tuple[int, int], offset: int,
                size: int) -> int:
        """Where ``[offset, offset + size)`` of a live extent starts."""
        check_access(extent in self._live, f"extent {extent[0]:#x}",
                     extent[1], offset, size)
        return extent[0] + offset


class _LRUCache:
    """Fixed-capacity LRU key cache; access() reports hit/miss."""

    def __init__(self, capacity: int):
        self.capacity = capacity
        self._keys: OrderedDict = OrderedDict()
        self.hits = 0
        self.misses = 0

    def access(self, key) -> bool:
        if key in self._keys:
            self._keys.move_to_end(key)
            self.hits += 1
            return True
        self.misses += 1
        self._keys[key] = None
        if len(self._keys) > self.capacity:
            self._keys.popitem(last=False)
        return False

    def invalidate(self, key) -> None:
        self._keys.pop(key, None)


@dataclass
class QueuePair:
    qp_id: int


@dataclass
class MemoryRegion:
    """A registered MR: the RDMA protection domain unit."""

    mr_id: int
    base_pa: int
    size: int
    pinned: bool            # pinned at registration vs ODP
    qp: QueuePair           # the connection the four verbs reach it over
    touched_pages: set = field(default_factory=set)


class RDMAMemoryNode:
    """A host server exposing memory via one-sided RDMA verbs."""

    _mr_ids = itertools.count(1)
    _qp_ids = itertools.count(1)

    def __init__(self, env: Environment, params: ClioParams,
                 rng: Optional[RandomStream] = None):
        self.env = env
        self.params = params
        self.rdma = params.rdma
        self.rng = rng or RandomStream(0, "rdma")
        capacity = (params.backend.dram_capacity
                    or params.cboard.dram_capacity)
        self.dram = DRAM(capacity, access_ns=100,
                         bandwidth_bps=params.cboard.dram_bandwidth_bps)
        self.qp_cache = _LRUCache(self.rdma.qp_cache_entries)
        self.pte_cache = _LRUCache(self.rdma.pte_cache_entries)
        self.mr_cache = _LRUCache(self.rdma.mr_cache_entries)
        self._mrs: dict[int, MemoryRegion] = {}
        # MR registration runs through the host kernel (pin_user_pages
        # under mmap_sem) — concurrent registrations serialize.
        self._registration_lock = Resource(env, capacity=1)
        self._extents = Extents(capacity)
        self.ops = 0
        self.page_faults = 0
        # Energy accounting: host CPU cycles burned serving the MN side.
        self.mn_cpu_busy_ns = 0

    # -- connection setup ---------------------------------------------------------

    def create_qp(self) -> QueuePair:
        """Connect one client process (reliable connection QP)."""
        return QueuePair(qp_id=next(self._qp_ids))

    # -- memory registration ---------------------------------------------------------

    def register_mr(self, size: int, pinned: bool = True):
        """Process-generator: register (and optionally pin) a region.

        Cost: verbs base + per-4KB-page pinning when ``pinned``; ODP
        registration skips the pinning but pays faults on first touch.
        """
        if size <= 0:
            raise ValueError(f"size must be positive, got {size}")
        if len(self._mrs) >= self.rdma.max_mrs:
            raise MRRegistrationError(
                f"RNIC cannot register more than {self.rdma.max_mrs} MRs")
        pages = -(-size // self.rdma.host_page_size)
        cost = self.rdma.mr_register_base_ns
        if pinned:
            cost += pages * self.rdma.mr_register_per_page_ns
        token = self._registration_lock.request()
        yield token
        try:
            yield self.env.timeout(cost)
        finally:
            self._registration_lock.release(token)
        self.mn_cpu_busy_ns += cost
        base_pa, _ = self._extents.take(size)
        region = MemoryRegion(mr_id=next(self._mr_ids), base_pa=base_pa,
                              size=size, pinned=pinned, qp=self.create_qp())
        self._mrs[region.mr_id] = region
        return region

    def deregister_mr(self, region: MemoryRegion):
        yield self.env.timeout(self.rdma.mr_register_base_ns // 2)
        if self._mrs.pop(region.mr_id, None) is not None:
            self._extents.release((region.base_pa, region.size))
            self.dram.zero(region.base_pa, region.size)
        self.mr_cache.invalidate(region.mr_id)

    # -- one-sided verbs ----------------------------------------------------------------

    def _metadata_penalty_ns(self, qp: QueuePair, region: MemoryRegion,
                             offset: int, size: int) -> int:
        """On-chip cache lookups for QP, MR, and MTT entries."""
        penalty = 0
        if not self.qp_cache.access(qp.qp_id):
            # QP context (~375B) spans multiple lines: two PCIe fetches.
            penalty += 2 * self.rdma.pcie_miss_penalty_ns
        if not self.mr_cache.access(region.mr_id):
            penalty += self.rdma.pcie_miss_penalty_ns
        page_size = self.rdma.host_page_size
        first = offset // page_size
        last = (offset + size - 1) // page_size
        for page in range(first, last + 1):
            if not self.pte_cache.access((region.mr_id, page)):
                penalty += self.rdma.pcie_miss_penalty_ns
        return penalty

    def _fault_penalty_ns(self, region: MemoryRegion, offset: int,
                          size: int) -> int:
        """ODP first-touch faults trap into the host OS (16.8 ms)."""
        if region.pinned:
            return 0
        page_size = self.rdma.host_page_size
        first = offset // page_size
        last = (offset + size - 1) // page_size
        penalty = 0
        for page in range(first, last + 1):
            if page not in region.touched_pages:
                region.touched_pages.add(page)
                self.page_faults += 1
                penalty += self.rdma.odp_page_fault_ns
        return penalty

    def _tail_jitter_ns(self) -> int:
        """Light jitter plus a rare heavy tail (Figure 7's long RDMA tail)."""
        jitter = self.rng.uniform_int(0, 300)
        roll = self.rng.uniform()
        if roll < 0.0005:
            jitter += self.rng.uniform_int(200_000, 4_000_000)  # 0.2-4 ms spike
        elif roll < 0.02:
            jitter += self.rng.uniform_int(10_000, 60_000)      # 10-60 us
        return jitter

    def _serialization_ns(self, size: int) -> int:
        rate = min(self.params.network.cn_nic_rate_bps,
                   self.params.network.switch_rate_bps)
        return (size * 8 * SEC) // rate

    def _verb(self, base_ns: int, qp: QueuePair, region: MemoryRegion,
              offset: int, size: int):
        check_access(region.mr_id in self._mrs, f"MR {region.mr_id}",
                     region.size, offset, size)
        self.ops += 1
        latency = (base_ns
                   + self._serialization_ns(size)
                   + self._metadata_penalty_ns(qp, region, offset, size)
                   + self._fault_penalty_ns(region, offset, size)
                   + self._tail_jitter_ns())
        yield self.env.timeout(latency)
        return latency

    def read(self, qp: QueuePair, region: MemoryRegion, offset: int,
             size: int):
        """Process-generator: one-sided READ; returns (data, latency_ns)."""
        latency = yield from self._verb(self.rdma.base_read_rtt_ns, qp,
                                        region, offset, size)
        data = self.dram.read(region.base_pa + offset, size)
        return data, latency

    def write(self, qp: QueuePair, region: MemoryRegion, offset: int,
              data: bytes):
        """Process-generator: one-sided WRITE; returns latency_ns."""
        latency = yield from self._verb(self.rdma.base_write_rtt_ns, qp,
                                        region, offset, len(data))
        self.dram.write(region.base_pa + offset, data)
        return latency

    def atomic_cas(self, qp: QueuePair, region: MemoryRegion, offset: int,
                   expected: int, value: int):
        """Process-generator: 8-byte CAS; returns (old, success, latency)."""
        latency = yield from self._verb(self.rdma.base_read_rtt_ns, qp,
                                        region, offset, 8)
        old = int.from_bytes(self.dram.read(region.base_pa + offset, 8),
                             "little")
        success = old == expected
        if success:
            self.dram.write(region.base_pa + offset,
                            value.to_bytes(8, "little"))
        return old, success, latency

    # -- the comparison verbs: an allocation is a pinned MR ------------------------------

    alloc = register_mr
    free = deregister_mr

    def load(self, region: MemoryRegion, offset: int, size: int):
        return (yield from self.read(region.qp, region, offset, size))

    def store(self, region: MemoryRegion, offset: int, data: bytes):
        return (yield from self.write(region.qp, region, offset, data))
