"""HERD RPC key-value baseline (paper section 7, Figures 10-11, 17-18).

HERD serves a key-value interface with an RPC architecture: the client
writes its request into server memory, a server CPU core polls, executes
the operation, and replies.  Two deployments:

* **CPU**: the handler runs on the host Xeon — fast per-op handling, but
  every op burns host CPU (the energy cost Figure 18 shows);
* **BlueField (HERD-BF)**: the handler runs on the SmartNIC's ARM cores —
  each op crosses between the ConnectX chip and the ARM chip, which is
  what makes HERD-BF's latency *worse* than host-CPU HERD.

For the comparison verbs (:mod:`repro.baselines.api`) an allocation is a
``(base, size)`` extent of the server's memory, carved by a client-side
bump allocator, and ``load``/``store`` are RPCs over raw bytes.
"""

from __future__ import annotations

from typing import Optional

from repro.baselines.rdma import check_access
from repro.core.memory import DRAM
from repro.params import ClioParams, SEC
from repro.sim import Environment, Resource
from repro.sim.rng import RandomStream


class HERDServer:
    """An RPC KV server over RDMA, on a host CPU or a BlueField."""

    VALUE_SLOT = 1 << 10

    def __init__(self, env: Environment, params: ClioParams,
                 on_bluefield: bool = False,
                 rng: Optional[RandomStream] = None):
        self.env = env
        self.params = params
        self.herd = params.herd
        self.on_bluefield = on_bluefield
        self.rng = rng or RandomStream(0, "herd")
        capacity = (params.backend.dram_capacity
                    or params.cboard.dram_capacity)
        self.dram = DRAM(capacity, access_ns=100,
                         bandwidth_bps=params.cboard.dram_bandwidth_bps)
        self._cores = Resource(env, capacity=params.herd.server_cores)
        self._index: dict[bytes, int] = {}
        self._next_slot = 0
        self._next_base = 0
        self._extents: set[tuple[int, int]] = set()
        self.gets = 0
        self.puts = 0
        self.mn_cpu_busy_ns = 0       # host CPU (or ARM) time serving RPCs

    # -- timing -------------------------------------------------------------------------

    def _wire_ns(self, payload: int) -> int:
        rate = min(self.params.network.cn_nic_rate_bps,
                   self.params.network.switch_rate_bps)
        # Request write + response write: a full round trip + payload.
        return (self.params.rdma.base_read_rtt_ns
                + (payload * 8 * SEC) // rate)

    def _handling_ns(self, payload: int) -> int:
        """Per-op server time: dispatch + KV work + request/response copies."""
        if self.on_bluefield:
            # NIC chip -> ARM chip -> NIC chip, plus slower cores.
            return (2 * self.herd.bluefield_crossing_ns
                    + self.herd.bluefield_handling_ns
                    + int(payload * self.herd.bluefield_per_byte_ns)
                    + self.rng.uniform_int(0, 300))
        return (self.herd.cpu_handling_ns
                + int(payload * self.herd.cpu_per_byte_ns)
                + self.rng.uniform_int(0, 150))

    def _rpc(self, payload: int):
        core = self._cores.request()
        yield core
        try:
            handling = self._handling_ns(payload)
            self.mn_cpu_busy_ns += handling
            yield self.env.timeout(handling)
        finally:
            self._cores.release(core)
        yield self.env.timeout(self._wire_ns(payload))

    # -- KV interface ---------------------------------------------------------------------

    def put(self, key: bytes, value: bytes):
        """Process-generator: RPC set; returns latency_ns."""
        if len(value) > self.VALUE_SLOT:
            raise ValueError(f"value exceeds slot size {self.VALUE_SLOT}")
        start = self.env.now
        self.puts += 1
        yield from self._rpc(len(value))
        key = bytes(key)
        slot = self._index.get(key)
        if slot is None:
            slot = self._next_slot
            self._next_slot += 1
            if (slot + 1) * self.VALUE_SLOT > self.dram.capacity:
                raise MemoryError("HERD store full")
            self._index[key] = slot
        self.dram.write(slot * self.VALUE_SLOT, value)
        return self.env.now - start

    def get(self, key: bytes):
        """Process-generator: RPC get; returns (value, latency_ns)."""
        start = self.env.now
        self.gets += 1
        slot = self._index.get(bytes(key))
        payload = self.VALUE_SLOT if slot is not None else 0
        yield from self._rpc(payload)
        if slot is None:
            return None, self.env.now - start
        data = self.dram.read(slot * self.VALUE_SLOT, self.VALUE_SLOT)
        return data, self.env.now - start

    # -- the comparison verbs: raw bytes over the same RPC path -------------------------

    def alloc(self, size: int):
        """Process-generator: carve an extent; returns ``(base, size)``."""
        if self._next_base + size > self.dram.capacity:
            raise MemoryError("HERD store full")
        extent = (self._next_base, size)
        self._next_base += size
        self._extents.add(extent)
        yield self.env.timeout(0)
        return extent

    def free(self, extent: tuple[int, int]):
        self._extents.remove(extent)
        yield self.env.timeout(0)

    def _extent_base(self, extent: tuple[int, int], offset: int,
                     size: int) -> int:
        check_access(extent in self._extents, f"extent {extent[0]:#x}",
                     extent[1], offset, size)
        return extent[0] + offset

    def load(self, extent: tuple[int, int], offset: int, size: int):
        """Process-generator: RPC read of raw bytes; returns (data, ns)."""
        base = self._extent_base(extent, offset, size)
        start = self.env.now
        yield from self._rpc(size)
        return self.dram.read(base, size), self.env.now - start

    def store(self, extent: tuple[int, int], offset: int, data: bytes):
        """Process-generator: RPC write of raw bytes; returns latency_ns."""
        base = self._extent_base(extent, offset, len(data))
        start = self.env.now
        yield from self._rpc(len(data))
        self.dram.write(base, data)
        return self.env.now - start
