"""One protocol over every comparison backend (`MemoryBackend`).

The paper's evaluation compares four systems with four mutually
incompatible APIs: ``qp/region`` verbs in :mod:`repro.baselines.rdma`,
``pid/va`` software VM in :mod:`repro.baselines.legoos`, ``put/get`` KV
in :mod:`repro.baselines.clover` and :mod:`repro.baselines.herd`, and
Clio's own CLib threads.  Every figure benchmark and the ``repro
compare`` CLI used to hand-code one loop per system.  This module
defines the single surface they now iterate over:

* :class:`MemoryBackend` — ``setup / alloc / free / read / write`` as
  process-generators with uniform return conventions (``read`` returns
  ``(bytes, latency_ns)``, ``write`` returns ``latency_ns``);
* thin adapters wrapping each existing class **without changing it** —
  the legacy classes stay importable and behavior-identical, and every
  adapter is seeded so same-seed runs produce bit-identical latency
  sequences (the conformance suite pins them);
* :func:`create_backend` — the one factory the CLI and benchmarks use,
  honoring :class:`repro.params.BackendParams` for setup knobs.

Data semantics are uniform: allocations read as zeros until written
(matching :class:`repro.core.memory.DRAM`), and a read returns exactly
the bytes the most recent write left at that range.  KV-substrate
adapters (Clover, HERD's KV mode is not used here — its raw RPC path
is) honor this for the access patterns the conformance suite drives:
reads of ranges that were either written as a unit or never written.
"""

from __future__ import annotations

import abc
import itertools
from typing import Optional

from repro.params import BACKEND_NAMES, GB, MB, ClioParams


class MemoryBackend(abc.ABC):
    """Uniform driver interface over one remote-memory system.

    All five methods are **process-generators** to be driven on the
    backend's environment (``yield from`` inside a process, or via
    :meth:`run_process` from plain code).  Handles returned by
    :meth:`alloc` are opaque integers scoped to this backend instance.

    Subclasses own their simulation environment: a backend is a
    self-contained experiment (environment + node + adapter state), so
    benchmarks can build several side by side and run each to
    completion independently.
    """

    #: registry name, e.g. ``"rdma"``; set by each subclass
    name: str = ""

    def __init__(self, params: Optional[ClioParams] = None, seed: int = 0):
        self.params = params or ClioParams.prototype()
        self.seed = seed
        self._handles = itertools.count(1)
        self._ready = False

    # -- environment ------------------------------------------------------------------

    @property
    @abc.abstractmethod
    def env(self):
        """The simulation environment this backend schedules into."""

    def run_process(self, generator):
        """Drive one process-generator to completion; return its value."""
        return self.env.run(until=self.env.process(generator))

    # -- protocol ---------------------------------------------------------------------

    @abc.abstractmethod
    def setup(self):
        """Process-generator: one-time connection/registration work."""

    @abc.abstractmethod
    def alloc(self, size: int):
        """Process-generator: allocate ``size`` bytes; returns a handle."""

    @abc.abstractmethod
    def free(self, handle: int):
        """Process-generator: release an allocation."""

    @abc.abstractmethod
    def read(self, handle: int, offset: int, size: int):
        """Process-generator: returns ``(data, latency_ns)``."""

    @abc.abstractmethod
    def write(self, handle: int, offset: int, data: bytes):
        """Process-generator: returns ``latency_ns``."""

    # -- shared plumbing --------------------------------------------------------------

    def _require_setup(self) -> None:
        if not self._ready:
            raise RuntimeError(f"{self.name}: call setup() before use")

    def _check_bounds(self, size: int, offset: int, length: int) -> None:
        if offset < 0 or offset + length > size:
            raise ValueError(
                f"{self.name}: access [{offset}, {offset + length}) outside "
                f"allocation of {size} bytes")


class ClioBackend(MemoryBackend):
    """Clio itself, through a CLib thread on a one-CN/one-MN cluster."""

    name = "clio"

    def __init__(self, params: Optional[ClioParams] = None, seed: int = 0,
                 cluster=None):
        super().__init__(params, seed)
        from repro.cluster import ClioCluster
        capacity = (self.params.backend.dram_capacity
                    or self.params.cboard.dram_capacity)
        self.cluster = cluster or ClioCluster(
            params=self.params, seed=seed, mn_capacity=capacity)
        self._thread = None
        self._sizes: dict[int, int] = {}
        self._vas: dict[int, int] = {}

    @property
    def env(self):
        return self.cluster.env

    def run_process(self, generator):
        return self.cluster.run(until=self.env.process(generator))

    def setup(self):
        self._thread = self.cluster.cn(0).process("mn0").thread()
        self._ready = True
        yield self.env.timeout(0)

    def alloc(self, size: int):
        self._require_setup()
        va = yield from self._thread.ralloc(size)
        handle = next(self._handles)
        self._vas[handle] = va
        self._sizes[handle] = size
        return handle

    def free(self, handle: int):
        self._require_setup()
        yield from self._thread.rfree(self._vas.pop(handle))
        self._sizes.pop(handle)

    def read(self, handle: int, offset: int, size: int):
        self._require_setup()
        self._check_bounds(self._sizes[handle], offset, size)
        start = self.env.now
        data = yield from self._thread.rread(self._vas[handle] + offset, size)
        return data, self.env.now - start

    def write(self, handle: int, offset: int, data: bytes):
        self._require_setup()
        self._check_bounds(self._sizes[handle], offset, len(data))
        start = self.env.now
        yield from self._thread.rwrite(self._vas[handle] + offset, data)
        return self.env.now - start


class RDMABackend(MemoryBackend):
    """One-sided RDMA verbs: alloc registers an MR, read/write are verbs."""

    name = "rdma"

    def __init__(self, params: Optional[ClioParams] = None, seed: int = 0):
        super().__init__(params, seed)
        from repro.baselines.rdma import RDMAMemoryNode
        from repro.sim import Environment
        from repro.sim.rng import RandomStream
        self._env = Environment()
        self.node = RDMAMemoryNode(self._env, self.params,
                                   rng=RandomStream(seed, "rdma"))
        self._qp = None
        self._regions: dict[int, object] = {}

    @property
    def env(self):
        return self._env

    def setup(self):
        self._qp = self.node.create_qp()
        self._ready = True
        yield self.env.timeout(0)

    def alloc(self, size: int):
        self._require_setup()
        region = yield from self.node.register_mr(size)
        handle = next(self._handles)
        self._regions[handle] = region
        return handle

    def free(self, handle: int):
        self._require_setup()
        yield from self.node.deregister_mr(self._regions.pop(handle))

    def read(self, handle: int, offset: int, size: int):
        self._require_setup()
        region = self._regions[handle]
        data, latency = yield from self.node.read(self._qp, region,
                                                  offset, size)
        return data, latency

    def write(self, handle: int, offset: int, data: bytes):
        self._require_setup()
        region = self._regions[handle]
        latency = yield from self.node.write(self._qp, region, offset, data)
        return latency


class LegoOSBackend(MemoryBackend):
    """LegoOS software VM: alloc maps a VA range at the software MN."""

    name = "legoos"

    _PID = 1

    def __init__(self, params: Optional[ClioParams] = None, seed: int = 0):
        super().__init__(params, seed)
        from repro.baselines.legoos import LegoOSMemoryNode
        from repro.sim import Environment
        from repro.sim.rng import RandomStream
        self._env = Environment()
        self.node = LegoOSMemoryNode(self._env, self.params,
                                     rng=RandomStream(seed, "legoos"))
        self._next_va = 0
        self._ranges: dict[int, tuple[int, int]] = {}

    @property
    def env(self):
        return self._env

    def setup(self):
        self._ready = True
        yield self.env.timeout(0)

    def alloc(self, size: int):
        self._require_setup()
        va = self._next_va
        page = self.node.page_size
        self._next_va += -(-size // page) * page
        self.node.map_range(self._PID, va, size)
        handle = next(self._handles)
        self._ranges[handle] = (va, size)
        yield self.env.timeout(0)
        return handle

    def free(self, handle: int):
        # LegoOS frees through its own manager; the model keeps mappings.
        self._require_setup()
        self._ranges.pop(handle)
        yield self.env.timeout(0)

    def read(self, handle: int, offset: int, size: int):
        self._require_setup()
        va, total = self._ranges[handle]
        self._check_bounds(total, offset, size)
        data, latency = yield from self.node.read(self._PID, va + offset,
                                                  size)
        return data, latency

    def write(self, handle: int, offset: int, data: bytes):
        self._require_setup()
        va, total = self._ranges[handle]
        self._check_bounds(total, offset, len(data))
        latency = yield from self.node.write(self._PID, va + offset, data)
        return latency


class CloverBackend(MemoryBackend):
    """Clover's KV store driven as memory: one key per written range.

    Clover is client-managed passive memory with a native put/get
    interface; the adapter keys versions by ``(handle, offset)`` so a
    read of a range that was written as a unit returns those bytes (out
    of the 1 KB version slot) and a never-written range reads as zeros
    — the same observable semantics as the byte-addressed backends for
    unit-aligned access patterns.
    """

    name = "clover"

    def __init__(self, params: Optional[ClioParams] = None, seed: int = 0):
        super().__init__(params, seed)
        from repro.baselines.clover import CloverStore
        from repro.sim import Environment
        from repro.sim.rng import RandomStream
        self._env = Environment()
        self.store = CloverStore(self._env, self.params,
                                 rng=RandomStream(seed, "clover"))
        self._sizes: dict[int, int] = {}

    @property
    def env(self):
        return self._env

    @staticmethod
    def _key(handle: int, offset: int) -> bytes:
        return b"%d:%d" % (handle, offset)

    def setup(self):
        yield from self.store.setup()
        self._ready = True

    def alloc(self, size: int):
        # Passive memory: clients carve the pre-registered region
        # themselves; allocation is pure client-side bookkeeping.
        self._require_setup()
        handle = next(self._handles)
        self._sizes[handle] = size
        yield self.env.timeout(0)
        return handle

    def free(self, handle: int):
        self._require_setup()
        self._sizes.pop(handle)
        yield self.env.timeout(0)

    def read(self, handle: int, offset: int, size: int):
        self._require_setup()
        self._check_bounds(self._sizes[handle], offset, size)
        value, latency = yield from self.store.get(self._key(handle, offset))
        if value is None:
            return bytes(size), latency
        data = bytes(value[:size])
        if len(data) < size:
            data += bytes(size - len(data))
        return data, latency

    def write(self, handle: int, offset: int, data: bytes):
        self._require_setup()
        self._check_bounds(self._sizes[handle], offset, len(data))
        latency = yield from self.store.put(self._key(handle, offset),
                                            bytes(data))
        return latency


class HERDBackend(MemoryBackend):
    """HERD's raw RPC path over a client-side bump allocator."""

    name = "herd"

    on_bluefield = False

    def __init__(self, params: Optional[ClioParams] = None, seed: int = 0):
        super().__init__(params, seed)
        from repro.baselines.herd import HERDServer
        from repro.sim import Environment
        from repro.sim.rng import RandomStream
        self._env = Environment()
        self.server = HERDServer(self._env, self.params,
                                 on_bluefield=self.on_bluefield,
                                 rng=RandomStream(seed, "herd"))
        self._next_base = 0
        self._ranges: dict[int, tuple[int, int]] = {}

    @property
    def env(self):
        return self._env

    def setup(self):
        self._ready = True
        yield self.env.timeout(0)

    def alloc(self, size: int):
        self._require_setup()
        if self._next_base + size > self.server.dram.capacity:
            raise MemoryError(f"{self.name}: store full")
        handle = next(self._handles)
        self._ranges[handle] = (self._next_base, size)
        self._next_base += size
        yield self.env.timeout(0)
        return handle

    def free(self, handle: int):
        self._require_setup()
        self._ranges.pop(handle)
        yield self.env.timeout(0)

    def read(self, handle: int, offset: int, size: int):
        self._require_setup()
        base, total = self._ranges[handle]
        self._check_bounds(total, offset, size)
        data, latency = yield from self.server.raw_read(base + offset, size)
        return data, latency

    def write(self, handle: int, offset: int, data: bytes):
        self._require_setup()
        base, total = self._ranges[handle]
        self._check_bounds(total, offset, len(data))
        latency = yield from self.server.raw_write(base + offset, data)
        return latency


class HERDBlueFieldBackend(HERDBackend):
    """HERD with the handler on the BlueField's ARM cores."""

    name = "herd-bf"
    on_bluefield = True


# ---------------------------------------------------------------------------
# Registry + factory
# ---------------------------------------------------------------------------


def _cxl_backend():
    from repro.baselines.cxl import CXLBackend
    return CXLBackend


#: name -> class (CXL resolved lazily to keep import edges one-way)
BACKENDS: dict[str, type] = {
    "clio": ClioBackend,
    "rdma": RDMABackend,
    "legoos": LegoOSBackend,
    "clover": CloverBackend,
    "herd": HERDBackend,
    "herd-bf": HERDBlueFieldBackend,
}


def create_backend(name: str, params: Optional[ClioParams] = None,
                   seed: int = 0) -> MemoryBackend:
    """Build a ready-to-setup backend by registry name.

    ``params.backend`` supplies the setup knobs (capacity, Clover slot
    count, CXL tenant); the caller says which backend it wants, so one
    params bundle can drive a whole comparison sweep.
    """
    if name == "cxl":
        cls = _cxl_backend()
    else:
        cls = BACKENDS.get(name)
    if cls is None:
        raise ValueError(
            f"unknown backend {name!r}; expected one of {BACKEND_NAMES}")
    return cls(params=params, seed=seed)
