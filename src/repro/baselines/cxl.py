"""CXL 2.0-style pooled load/store memory (the third paradigm).

Clio's evaluation compares RPC-style hardware disaggregation against
RDMA and software MNs; the comparison ROADMAP names as the open item is
cache-line-granularity **load/store** pooling — what a CXL 2.0 switch
with multi-headed devices provides.  This module models that paradigm
with the same philosophy as the other baselines: a timing model
calibrated to published measurements (CXL-DMSim's ~350-400 ns far loads,
emucxl's NUMA-emulation band), not a packet-level simulation.

What the model keeps, because the comparison turns on it:

* **No RPC framing.** A load/store pays HDM decode + switch hop + device
  access.  There is no doorbell, no header amortization, no congestion
  window: a 64 B access costs ~470 ns where Clio's RPC path costs ~2.3 us
  — CXL wins all sub-line traffic.
* **Line granularity.** Every access moves whole 64 B lines.  Bulk moves
  pipeline extra lines at ``line_pipeline_ns`` but still pay per-line
  port occupancy, so large transfers lose to Clio's streamed RPC frames.
* **Coherence is not free.** A directory tracks which host holds each
  line.  Touching a line another host wrote costs a back-invalidation
  (recall the dirty copy); touching a clean remote line on a store costs
  a snoop.  Write-heavy sharing ping-pongs lines and erases the latency
  advantage — the churn benchmark pins this directionally.
* **One port.** Every host's lines serialize onto the one pool port, so
  one host's bulk stores queue everyone else's loads behind them.

Determinism: the model is pure integer arithmetic over seeded state (no
RNG at all), so same-seed runs are bit-identical and the conformance
suite pins exact latency fingerprints.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional

from repro.baselines.rdma import Extents
from repro.core.memory import DRAM
from repro.params import ClioParams, SEC
from repro.sim import Environment


class CXLError(Exception):
    """Base error of the CXL pool model."""


class CXLAccessError(CXLError, ValueError):
    """An access fell outside the host's HDM-decoded ranges (a
    ``ValueError``, like every comparison system's access error)."""


@dataclass
class HDMRegion:
    """One HDM-decoder entry: a host-visible window onto device memory."""

    region_id: int
    host: str
    base_pa: int          # device physical address
    size: int


class CXLHost:
    """One host attached to the pool: the load/store issue side.

    All methods are process-generators on ``env``, the pool's
    environment; they are the four comparison verbs of
    :mod:`repro.baselines.api`.
    """

    def __init__(self, pool: "CXLPool", name: str):
        self.pool = pool
        self.env = pool.env
        self.name = name
        self.loads = 0
        self.stores = 0

    def alloc(self, size: int):
        """Process-generator: program an HDM window; returns the region."""
        region = yield from self.pool._alloc(self, size)
        return region

    def free(self, region: HDMRegion):
        yield from self.pool._free(self, region)

    def load(self, region: HDMRegion, offset: int, size: int):
        """Process-generator: line-granular load; returns (data, ns)."""
        self.loads += 1
        result = yield from self.pool._access(self, region, offset, size,
                                              store=False, data=None)
        return result

    def store(self, region: HDMRegion, offset: int, data: bytes):
        """Process-generator: line-granular store; returns latency_ns."""
        self.stores += 1
        _, latency = yield from self.pool._access(self, region, offset,
                                                  len(data), store=True,
                                                  data=data)
        return latency


class CXLPool:
    """The pooled device + fabric: capacity, coherence and the one port."""

    def __init__(self, env: Environment, params: ClioParams,
                 capacity: Optional[int] = None):
        self.env = env
        self.params = params
        self.cxl = params.cxl
        if capacity is None:
            capacity = (params.backend.dram_capacity
                        or params.cboard.dram_capacity)
        self.dram = DRAM(capacity, access_ns=100,
                         bandwidth_bps=params.cboard.dram_bandwidth_bps)
        self._region_ids = itertools.count(1)
        self._extents = Extents(capacity)
        self._regions: dict[int, HDMRegion] = {}
        # Coherence directory: line index -> (owner host, dirty).
        self._directory: dict[int, tuple[str, bool]] = {}
        # The port serializer (absolute ns timestamp) and one line's time
        # on it.
        self._port_free_at = 0
        self._line_wire_ns = max(
            1, (self.cxl.line_bytes * 8 * SEC) // self.cxl.port_rate_bps)
        self._hosts: dict[str, CXLHost] = {}
        self.loads = 0
        self.stores = 0
        self.lines_moved = 0
        self.snoops = 0
        self.back_invalidations = 0
        self.port_wait_ns = 0

    def host(self, name: str) -> CXLHost:
        """Attach (or look up) a host."""
        host = self._hosts.get(name)
        if host is None:
            host = self._hosts[name] = CXLHost(self, name)
        return host

    # -- capacity -------------------------------------------------------------------

    def _alloc(self, host: CXLHost, size: int):
        if size <= 0:
            raise ValueError(f"size must be positive, got {size}")
        # Round to whole lines: the HDM decoder maps line-aligned windows.
        line = self.cxl.line_bytes
        size = -(-size // line) * line
        try:
            base, _ = self._extents.take(size)
        except MemoryError:
            raise CXLError(f"pool exhausted: {size} bytes requested, "
                           "no free range holds them") from None
        # Programming an HDM decoder entry is a slow config-space write.
        yield self.env.timeout(self.cxl.hdm_program_ns)
        region = HDMRegion(region_id=next(self._region_ids), host=host.name,
                           base_pa=base, size=size)
        self._regions[region.region_id] = region
        return region

    def _free(self, host: CXLHost, region: HDMRegion):
        if self._regions.pop(region.region_id, None) is None:
            raise CXLError(f"region {region.region_id} not allocated")
        self._extents.release((region.base_pa, region.size))
        self.dram.zero(region.base_pa, region.size)
        line = self.cxl.line_bytes
        first = region.base_pa // line
        last = (region.base_pa + region.size - 1) // line
        for index in range(first, last + 1):
            self._directory.pop(index, None)
        yield self.env.timeout(self.cxl.hdm_program_ns)

    # -- the load/store path ----------------------------------------------------------

    def _coherence_ns(self, host: CXLHost, first: int, last: int,
                      store: bool) -> int:
        """Directory cost of touching lines [first, last] from ``host``."""
        recalls = 0
        snoops = 0
        for index in range(first, last + 1):
            entry = self._directory.get(index)
            if entry is not None:
                owner, dirty = entry
                if owner != host.name:
                    if dirty:
                        recalls += 1
                    elif store:
                        # A store must invalidate clean remote copies too.
                        snoops += 1
            if store:
                self._directory[index] = (host.name, True)
            elif entry is None or entry[0] != host.name:
                self._directory[index] = (host.name, False)
        cost = 0
        if recalls:
            self.back_invalidations += recalls
            cost += (self.cxl.back_invalidate_ns
                     + (recalls - 1) * self.cxl.back_invalidate_pipelined_ns)
        if snoops:
            self.snoops += snoops
            cost += self.cxl.snoop_ns
        return cost

    def _access(self, host: CXLHost, region: HDMRegion, offset: int,
                size: int, store: bool, data: Optional[bytes]):
        if region.region_id not in self._regions:
            raise CXLAccessError(
                f"region {region.region_id} is not mapped (freed?)")
        if offset < 0 or offset + size > region.size:
            raise CXLAccessError(
                f"access [{offset}, {offset + size}) outside HDM window "
                f"of {region.size} bytes")
        if size <= 0:
            raise ValueError(f"size must be positive, got {size}")
        line = self.cxl.line_bytes
        pa = region.base_pa + offset
        first = pa // line
        last = (pa + size - 1) // line
        lines = last - first + 1

        # Device + fabric latency: decode, hop, first-line access, then
        # pipelined extra lines.
        base = (self.cxl.hdm_decode_ns + self.cxl.switch_hop_ns
                + (self.cxl.store_ns if store else self.cxl.load_ns)
                + (lines - 1) * self.cxl.line_pipeline_ns)
        base += self._coherence_ns(host, first, last, store)

        # Port occupancy: whole lines serialize onto the pool port.
        now = self.env.now
        occupancy = lines * self._line_wire_ns
        start = max(now, self._port_free_at)
        self._port_free_at = start + occupancy
        wait = start - now
        self.port_wait_ns += wait

        latency = base + wait + occupancy
        if store:
            self.stores += 1
        else:
            self.loads += 1
        self.lines_moved += lines

        yield self.env.timeout(latency)
        if store:
            self.dram.write(pa, data)
            return None, latency
        return self.dram.read(pa, size), latency
