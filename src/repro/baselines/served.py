"""Memory nodes built from regular servers (paper sections 2.2 and 7,
Figures 10-11, 17-18).

HERD, HERD-BF and LegoOS are one design: a pool of server workers
receives each request over RDMA, handles it in software, and replies.
The CPU version of HERD polls on host Xeon cores; HERD-BF runs the same
handler on a BlueField's ARM cores, so each op crosses between the
ConnectX chip and the ARM chip twice (which is what makes it *slower*
than host-CPU HERD); LegoOS's thread pool does address translation and
permission checks in software, which costs it ~2x Clio's latency at
small sizes and caps its goodput at 77 Gbps.

So one model, :class:`ServedMemoryNode`, takes a row of five numbers
per system (:func:`cost_rows`).  An op holds a worker for
``fixed_ns + size * per_byte_ns`` plus one uniform draw in
``[0, jitter_ns]``, then pays ``rdma.base_read_rtt_ns`` plus its bytes
at ``rate_bps`` (capped by the CN's NIC).

For the comparison verbs (:mod:`repro.baselines.api`) an allocation is
a ``(base, size)`` extent of the node's memory and ``load``/``store``
are requests over raw bytes.  HERD's key-value ``put``/``get`` keep one
``VALUE_SLOT`` extent per key, for Figures 17 and 18.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from repro.baselines.rdma import Extents
from repro.core.memory import DRAM
from repro.params import ClioParams, SEC
from repro.sim import Environment, Resource
from repro.sim.rng import RandomStream


class CostRow(NamedTuple):
    """What one op costs on a served memory node."""

    workers: int          # server cores or threads that handle requests
    fixed_ns: int         # per-op handling: dispatch, lookup, crossings
    per_byte_ns: float    # request/response copies
    jitter_ns: int        # bound of the op's one uniform jitter draw
    rate_bps: int         # wire-rate cap (the CN's NIC caps it too)


def cost_rows(params: ClioParams) -> dict[str, CostRow]:
    """Each served system's row, by its ``create_backend`` name."""
    herd, legoos = params.herd, params.legoos
    switch = params.network.switch_rate_bps
    return {
        "herd": CostRow(herd.server_cores, herd.cpu_handling_ns,
                        herd.cpu_per_byte_ns, 150, switch),
        "herd-bf": CostRow(herd.server_cores,
                           2 * herd.bluefield_crossing_ns
                           + herd.bluefield_handling_ns,
                           herd.bluefield_per_byte_ns, 300, switch),
        "legoos": CostRow(legoos.thread_pool_size,
                          legoos.software_handling_ns, 0, 400,
                          legoos.peak_goodput_bps),
    }


class ServedMemoryNode:
    """A server's memory behind a pool of request-handling workers."""

    VALUE_SLOT = 1 << 10

    def __init__(self, env: Environment, params: ClioParams, system: str,
                 rng: Optional[RandomStream] = None):
        rows = cost_rows(params)
        if system not in rows:
            raise ValueError(f"unknown served system {system!r}; expected "
                             f"one of {tuple(rows)}")
        self.env = env
        self.params = params
        self.cost = rows[system]
        self.rng = rng or RandomStream(0, system.removesuffix("-bf"))
        self._rate = min(params.network.cn_nic_rate_bps, self.cost.rate_bps)
        capacity = (params.backend.dram_capacity
                    or params.cboard.dram_capacity)
        self.dram = DRAM(capacity, access_ns=100,
                         bandwidth_bps=params.cboard.dram_bandwidth_bps)
        self._workers = Resource(env, capacity=self.cost.workers)
        self._extents = Extents(capacity)
        self._index: dict[bytes, tuple[int, int]] = {}   # key -> extent
        self.mn_cpu_busy_ns = 0       # worker time serving requests

    def _rpc(self, payload: int):
        worker = self._workers.request()
        yield worker
        try:
            cost = self.cost
            handling = (cost.fixed_ns + int(payload * cost.per_byte_ns)
                        + self.rng.uniform_int(0, cost.jitter_ns))
            self.mn_cpu_busy_ns += handling
            yield self.env.timeout(handling)
        finally:
            self._workers.release(worker)
        # Request in, response out: a full round trip plus the payload.
        yield self.env.timeout(self.params.rdma.base_read_rtt_ns
                               + (payload * 8 * SEC) // self._rate)

    # -- the comparison verbs -------------------------------------------------------

    def alloc(self, size: int):
        """Process-generator: carve an extent; returns ``(base, size)``."""
        extent = self._extents.take(size)
        yield self.env.timeout(0)
        return extent

    def free(self, extent: tuple[int, int]):
        self._extents.release(extent)
        self.dram.zero(*extent)
        yield self.env.timeout(0)

    def load(self, extent: tuple[int, int], offset: int, size: int):
        """Process-generator: read raw bytes; returns (data, latency_ns)."""
        address = self._extents.address(extent, offset, size)
        start = self.env.now
        yield from self._rpc(size)
        return self.dram.read(address, size), self.env.now - start

    def store(self, extent: tuple[int, int], offset: int, data: bytes):
        """Process-generator: write raw bytes; returns latency_ns."""
        address = self._extents.address(extent, offset, len(data))
        start = self.env.now
        yield from self._rpc(len(data))
        self.dram.write(address, data)
        return self.env.now - start

    # -- HERD's key-value face --------------------------------------------------------

    def put(self, key: bytes, value: bytes):
        """Process-generator: RPC set; returns latency_ns."""
        if len(value) > self.VALUE_SLOT:
            raise ValueError(f"value exceeds slot size {self.VALUE_SLOT}")
        start = self.env.now
        yield from self._rpc(len(value))
        key = bytes(key)
        extent = self._index.get(key)
        if extent is None:
            extent = self._index[key] = self._extents.take(self.VALUE_SLOT)
        self.dram.write(extent[0], value)
        return self.env.now - start

    def get(self, key: bytes):
        """Process-generator: RPC get; returns (value, latency_ns)."""
        extent = self._index.get(bytes(key))
        if extent is not None:
            return (yield from self.load(extent, 0, self.VALUE_SLOT))
        start = self.env.now
        yield from self._rpc(0)
        return None, self.env.now - start
