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
* **Coherence is not free.** With ``coherence=True`` (the pooled,
  multi-host configuration) a directory tracks which host holds each
  line.  Touching a line another host wrote costs a back-invalidation
  (recall the dirty copy); touching a clean remote line on a store costs
  a snoop.  Write-heavy sharing ping-pongs lines and erases the latency
  advantage — the churn benchmark pins this directionally.
* **Pooling needs QoS.** The pool is multi-tenant: per-tenant capacity
  quotas (a :class:`~repro.distributed.tenancy.TenantLedger`, the same
  accounting the global controller uses;
  :class:`~repro.distributed.tenancy.TenantQuotaExceeded` on breach) and
  per-tenant bandwidth reservations at the pool port.  ``shaping=False``
  shares one port serializer (one tenant's burst queues everyone);
  ``shaping=True`` gives each tenant a private serializer at ``share x
  port_rate`` — congestion isolation by construction, at the cost of
  work conservation.

Determinism: the model is pure integer arithmetic over seeded state (no
RNG at all), so same-seed runs are bit-identical and the conformance
suite pins exact latency fingerprints.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional

from repro.baselines.api import MemoryBackend
from repro.core.memory import DRAM
from repro.distributed.tenancy import TenantLedger
from repro.params import ClioParams, SEC
from repro.sim import Environment


class CXLError(Exception):
    """Base error of the CXL pool model."""


class CXLAccessError(CXLError):
    """An access fell outside the host's HDM-decoded ranges."""


@dataclass
class HDMRegion:
    """One HDM-decoder entry: a host-visible window onto device memory."""

    region_id: int
    host: str
    tenant: str
    base_pa: int          # device physical address
    size: int


class CXLHost:
    """One host attached to the pool: the load/store issue side.

    A host belongs to one tenant.  All methods are process-generators on
    the pool's environment.
    """

    def __init__(self, pool: "CXLPool", name: str, tenant: str):
        self.pool = pool
        self.name = name
        self.tenant = tenant
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
    """The pooled device + fabric: capacity, coherence, port, tenants."""

    def __init__(self, env: Environment, params: ClioParams,
                 capacity: Optional[int] = None, registry=None,
                 scope: str = "cxl", shaping: bool = False):
        self.env = env
        self.params = params
        self.cxl = params.cxl
        if capacity is None:
            capacity = (params.backend.dram_capacity
                        or params.cboard.dram_capacity)
        self.dram = DRAM(capacity, access_ns=100,
                         bandwidth_bps=params.cboard.dram_bandwidth_bps)
        self._region_ids = itertools.count(1)
        self._next_pa = 0
        self._free_ranges: list[tuple[int, int]] = []   # (base, size)
        self._regions: dict[int, HDMRegion] = {}
        # Coherence directory: line index -> (owner host, dirty).
        self._directory: dict[int, tuple[str, bool]] = {}
        # Port serializers (absolute ns timestamps).
        self._port_free_at = 0
        self._tenant_free_at: dict[str, int] = {}
        #: Give each tenant a private serializer at its reserved rate.
        self.shaping = shaping
        # Tenancy: quotas/shares from params.qos; hosts default to the
        # catch-all tenant with full share and no quota.
        self._shares = {tenant.name: tenant.share
                        for tenant in params.qos.tenants}
        self.tenants = TenantLedger(params.qos, registry,
                                    scope=f"{scope}.tenant")
        self._hosts: dict[str, CXLHost] = {}
        # Counters (also exported through the metrics registry).
        self.loads = 0
        self.stores = 0
        self.lines_moved = 0
        self.snoops = 0
        self.back_invalidations = 0
        self.port_wait_ns = 0
        self._tenant_bytes: dict[str, int] = {}
        self._tenant_wait_ns: dict[str, int] = {}
        if registry is not None:
            self._register_metrics(registry, scope)

    # -- wiring ---------------------------------------------------------------------

    def _register_metrics(self, registry, scope: str) -> None:
        pool = registry.scope(f"{scope}.pool")
        pool.counter("loads", "line-granular loads served", fn=lambda: self.loads)
        pool.counter("stores", "line-granular stores served",
                     fn=lambda: self.stores)
        pool.counter("lines_moved", "64B lines moved over the port",
                     fn=lambda: self.lines_moved)
        pool.counter("snoops", "clean remote copies probed",
                     fn=lambda: self.snoops)
        pool.counter("back_invalidations", "dirty remote lines recalled",
                     fn=lambda: self.back_invalidations)
        pool.counter("port_wait_ns", "total wait for the pool port",
                     unit="ns", fn=lambda: self.port_wait_ns)
        pool.gauge("used_bytes", "allocated device capacity",
                   unit="bytes", fn=self.tenants.total)
        for name in self._shares:
            tenant_scope = registry.scope(f"{scope}.tenant.{name}")
            tenant_scope.counter(
                "bytes_moved", "payload bytes moved for this tenant",
                unit="bytes",
                fn=lambda name=name: self._tenant_bytes.get(name, 0))
            tenant_scope.counter(
                "port_wait_ns", "port wait attributed to this tenant",
                unit="ns",
                fn=lambda name=name: self._tenant_wait_ns.get(name, 0))

    def host(self, name: str, tenant: str = "default") -> CXLHost:
        """Attach (or look up) a host under ``tenant``."""
        existing = self._hosts.get(name)
        if existing is not None:
            if existing.tenant != tenant:
                raise CXLError(
                    f"host {name!r} already attached as tenant "
                    f"{existing.tenant!r}")
            return existing
        host = CXLHost(self, name, tenant)
        self._hosts[name] = host
        return host

    # -- capacity -------------------------------------------------------------------

    def _carve(self, size: int) -> int:
        for index, (base, range_size) in enumerate(self._free_ranges):
            if range_size >= size:
                if range_size == size:
                    self._free_ranges.pop(index)
                else:
                    self._free_ranges[index] = (base + size,
                                                range_size - size)
                return base
        if self._next_pa + size > self.dram.capacity:
            raise CXLError(
                f"pool exhausted: {size} bytes requested, "
                f"{self.dram.capacity - self._next_pa} contiguous left")
        base = self._next_pa
        self._next_pa += size
        return base

    def _alloc(self, host: CXLHost, size: int):
        if size <= 0:
            raise ValueError(f"size must be positive, got {size}")
        # Round to whole lines: the HDM decoder maps line-aligned windows.
        line = self.cxl.line_bytes
        size = -(-size // line) * line
        self.tenants.check(host.tenant, size)
        base = self._carve(size)
        self.tenants.charge(host.tenant, size)
        # Programming an HDM decoder entry is a slow config-space write.
        yield self.env.timeout(self.cxl.hdm_program_ns)
        region = HDMRegion(region_id=next(self._region_ids), host=host.name,
                           tenant=host.tenant, base_pa=base, size=size)
        self._regions[region.region_id] = region
        return region

    def _free(self, host: CXLHost, region: HDMRegion):
        if self._regions.pop(region.region_id, None) is None:
            raise CXLError(f"region {region.region_id} not allocated")
        self.tenants.credit(region.tenant, region.size)
        self._free_ranges.append((region.base_pa, region.size))
        line = self.cxl.line_bytes
        first = region.base_pa // line
        last = (region.base_pa + region.size - 1) // line
        for index in range(first, last + 1):
            self._directory.pop(index, None)
        yield self.env.timeout(self.cxl.hdm_program_ns)

    # -- the load/store path ----------------------------------------------------------

    def _line_wire_ns(self, tenant: str) -> int:
        rate = self.cxl.port_rate_bps
        if self.shaping:
            rate = max(1, int(rate * self._shares.get(tenant, 1.0)))
        return max(1, (self.cxl.line_bytes * 8 * SEC) // rate)

    def _coherence_ns(self, host: CXLHost, first: int, last: int,
                      store: bool) -> int:
        """Directory cost of touching lines [first, last] from ``host``."""
        if not self.cxl.coherence:
            return 0
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

        # Port occupancy: whole lines serialize onto the pool port (or
        # onto the tenant's reserved slice of it when shaping).
        now = self.env.now
        occupancy = lines * self._line_wire_ns(host.tenant)
        if self.shaping:
            free_at = self._tenant_free_at.get(host.tenant, 0)
            start = max(now, free_at)
            self._tenant_free_at[host.tenant] = start + occupancy
        else:
            start = max(now, self._port_free_at)
            self._port_free_at = start + occupancy
        wait = start - now
        self.port_wait_ns += wait
        self._tenant_wait_ns[host.tenant] = (
            self._tenant_wait_ns.get(host.tenant, 0) + wait)

        latency = base + wait + occupancy
        if store:
            self.stores += 1
        else:
            self.loads += 1
        self.lines_moved += lines
        self._tenant_bytes[host.tenant] = (
            self._tenant_bytes.get(host.tenant, 0) + lines * line)

        yield self.env.timeout(latency)
        if store:
            self.dram.write(pa, data)
            return None, latency
        return self.dram.read(pa, size), latency


class CXLBackend(MemoryBackend):
    """The pool behind the uniform :class:`MemoryBackend` protocol.

    One backend instance is one host on a private pool (the comparison
    configuration).  Pooled multi-host experiments build a
    :class:`CXLPool` directly and attach hosts per tenant.
    """

    name = "cxl"

    def __init__(self, params: Optional[ClioParams] = None, seed: int = 0,
                 pool: Optional[CXLPool] = None, host: str = "host0"):
        super().__init__(params, seed)
        self._env = pool.env if pool is not None else Environment()
        self.pool = pool or CXLPool(self._env, self.params)
        self._host = self.pool.host(host, tenant=self.params.backend.tenant)
        self._regions: dict[int, HDMRegion] = {}

    @property
    def env(self):
        return self._env

    def setup(self):
        self._ready = True
        yield self.env.timeout(0)

    def alloc(self, size: int):
        self._require_setup()
        region = yield from self._host.alloc(size)
        handle = next(self._handles)
        self._regions[handle] = region
        return handle

    def free(self, handle: int):
        self._require_setup()
        yield from self._host.free(self._regions.pop(handle))

    def read(self, handle: int, offset: int, size: int):
        self._require_setup()
        result = yield from self._host.load(self._regions[handle], offset,
                                            size)
        return result

    def write(self, handle: int, offset: int, data: bytes):
        self._require_setup()
        latency = yield from self._host.store(self._regions[handle], offset,
                                              data)
        return latency
