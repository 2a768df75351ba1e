"""LegoOS-style software memory node (paper section 2.2, Figures 10-11).

LegoOS emulates the MN with a regular server: a thread pool receives
requests over RDMA and does address translation + permission checking in
software (hash-table lookup).  That software step is the bottleneck the
paper measures — roughly 2x Clio's latency at small sizes and a 77 Gbps
goodput ceiling versus Clio's 110+.

For the comparison verbs (:mod:`repro.baselines.api`) an allocation is a
``(va, size)`` extent mapped for one client process; ``free`` unmaps it.
"""

from __future__ import annotations

from typing import Optional

from repro.baselines.rdma import check_access
from repro.core.memory import DRAM
from repro.params import ClioParams, SEC
from repro.sim import Environment, Resource
from repro.sim.rng import RandomStream


class LegoOSMemoryNode:
    """Software virtual-memory MN over an RDMA-like network."""

    #: the process the comparison verbs run as
    PID = 1

    def __init__(self, env: Environment, params: ClioParams,
                 rng: Optional[RandomStream] = None):
        self.env = env
        self.params = params
        self.lego = params.legoos
        self.rng = rng or RandomStream(0, "legoos")
        capacity = (params.backend.dram_capacity
                    or params.cboard.dram_capacity)
        self.dram = DRAM(capacity, access_ns=100,
                         bandwidth_bps=params.cboard.dram_bandwidth_bps)
        self._threads = Resource(env, capacity=self.lego.thread_pool_size)
        self._vm: dict[tuple[int, int], int] = {}   # (pid, vpn) -> ppn
        self._next_ppn = 0
        self._next_va = 0
        self.page_size = 4 << 10
        self.ops = 0
        self.mn_cpu_busy_ns = 0

    # -- software virtual memory ------------------------------------------------------

    def map_range(self, pid: int, va: int, size: int) -> None:
        """Pre-map a VA range (LegoOS allocates through its own manager)."""
        first = va // self.page_size
        last = (va + size - 1) // self.page_size
        for vpn in range(first, last + 1):
            if (pid, vpn) not in self._vm:
                self._vm[(pid, vpn)] = self._next_ppn
                self._next_ppn += 1

    def _translate(self, pid: int, va: int) -> int:
        vpn = va // self.page_size
        ppn = self._vm.get((pid, vpn))
        if ppn is None:
            raise KeyError(f"pid={pid} va={va:#x} unmapped")
        return ppn * self.page_size + (va % self.page_size)

    # -- timing -----------------------------------------------------------------------

    def _wire_ns(self, size: int) -> int:
        """Network round trip (RDMA wire) capped at LegoOS's goodput."""
        rate = min(self.params.network.cn_nic_rate_bps,
                   self.lego.peak_goodput_bps)
        base = self.params.rdma.base_read_rtt_ns
        return base + (size * 8 * SEC) // rate

    def _software_ns(self) -> int:
        # Hash lookup + permission check + dispatch, with scheduler jitter.
        return self.lego.software_handling_ns + self.rng.uniform_int(0, 400)

    def _serve(self, size: int):
        """Common path: thread pool admission + software handling."""
        slot = self._threads.request()
        yield slot
        try:
            handling = self._software_ns()
            self.mn_cpu_busy_ns += handling
            yield self.env.timeout(handling)
        finally:
            self._threads.release(slot)
        yield self.env.timeout(self._wire_ns(size))

    # -- data path ------------------------------------------------------------------

    def read(self, pid: int, va: int, size: int):
        """Process-generator: remote read; returns (data, latency_ns)."""
        start = self.env.now
        self.ops += 1
        yield from self._serve(size)
        pa = self._translate(pid, va)
        data = self.dram.read(pa, size)
        return data, self.env.now - start

    def write(self, pid: int, va: int, data: bytes):
        """Process-generator: remote write; returns latency_ns."""
        start = self.env.now
        self.ops += 1
        yield from self._serve(len(data))
        pa = self._translate(pid, va)
        self.dram.write(pa, data)
        return self.env.now - start

    # -- the comparison verbs -----------------------------------------------------------

    def alloc(self, size: int):
        """Process-generator: map a fresh VA extent; returns ``(va, size)``."""
        va = self._next_va
        self._next_va += -(-size // self.page_size) * self.page_size
        self.map_range(self.PID, va, size)
        yield self.env.timeout(0)
        return va, size

    def free(self, extent: tuple[int, int]):
        va, size = extent
        for vpn in range(va // self.page_size,
                         (va + size - 1) // self.page_size + 1):
            del self._vm[(self.PID, vpn)]
        yield self.env.timeout(0)

    def _extent_va(self, extent: tuple[int, int], offset: int,
                   size: int) -> int:
        va, length = extent
        check_access((self.PID, va // self.page_size) in self._vm,
                     f"extent {va:#x}", length, offset, size)
        return va + offset

    def load(self, extent: tuple[int, int], offset: int, size: int):
        va = self._extent_va(extent, offset, size)
        return (yield from self.read(self.PID, va, size))

    def store(self, extent: tuple[int, int], offset: int, data: bytes):
        va = self._extent_va(extent, offset, len(data))
        return (yield from self.write(self.PID, va, data))
