"""Every comparison system behind four verbs, timed by one loop.

The paper's evaluation (section 7, Figures 7, 10 and 11) times the same
reads and writes on Clio, native RDMA, LegoOS, Clover, HERD and HERD-BF;
a CXL pool joins them as the load/store paradigm.  Each model answers
the same four verbs itself, all process-generators on ``model.env``:

* ``alloc(size)`` returns the model's own allocation object (an RDMA
  ``MemoryRegion``, a CXL ``HDMRegion``, a ``(base, size)`` extent);
* ``free(region)`` releases it;
* ``load(region, offset, size)`` returns ``(data, latency_ns)``;
* ``store(region, offset, data)`` returns ``latency_ns``.

Allocations read as zeros until written, a load returns the bytes the
last store left at that range (Clover, a KV store underneath: for ranges
stored as a unit), and an access outside a live allocation raises a
``ValueError``.  The native APIs -- ``read/write(qp, region, ...)``,
HERD's ``put/get`` -- stay for the figures that need model internals.  The section 6 apps (:mod:`repro.apps`) are
written once over the four verbs too.

:func:`create_backend` builds one ready model by name and
:func:`sample_latencies` is the one timing loop that Figures 7, 10 and 11
and ``repro compare`` share.  Only Clio needs a shim here,
:class:`ClioMemory` over one ``ClioThread``, whose
``ralloc/rread/rwrite/rfree`` are the paper's API; ``create_backend``
gives it a one-CN/one-MN cluster of its own.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.baselines.clover import CloverStore
from repro.baselines.cxl import CXLPool
from repro.baselines.rdma import RDMAMemoryNode, check_access
from repro.baselines.served import ServedMemoryNode
from repro.cluster import ClioCluster
from repro.params import BACKEND_NAMES, MB, ClioParams
from repro.sim import Environment
from repro.sim.rng import RandomStream

#: the allocation :func:`sample_latencies` times accesses in, at least
REGION_BYTES = 4 * MB


class ClioMemory:
    """Clio under the four verbs, on a caller's CLib thread; a region is
    the VA ``ralloc`` returned."""

    def __init__(self, thread):
        self.thread = thread
        self.env = thread.env
        self._sizes: dict[int, int] = {}     # live VA -> allocated bytes

    def alloc(self, size: int):
        va = yield from self.thread.ralloc(size)
        self._sizes[va] = size
        return va

    def free(self, va: int):
        yield from self.thread.rfree(va)
        del self._sizes[va]

    def _va(self, va: int, offset: int, size: int) -> int:
        check_access(va in self._sizes, f"region {va:#x}",
                     self._sizes.get(va, 0), offset, size)
        return va + offset

    def load(self, va: int, offset: int, size: int):
        start = self.env.now
        data = yield from self.thread.rread(self._va(va, offset, size), size)
        return data, self.env.now - start

    def store(self, va: int, offset: int, data: bytes):
        start = self.env.now
        yield from self.thread.rwrite(self._va(va, offset, len(data)), data)
        return self.env.now - start


def create_backend(name: str, params: Optional[ClioParams] = None,
                   seed: int = 0):
    """Build the ready model registered as ``name`` on its own environment.

    ``params.backend`` supplies the setup knobs (capacity, Clover slot
    count), so one params bundle drives a whole comparison.
    """
    if name not in BACKEND_NAMES:
        raise ValueError(
            f"unknown backend {name!r}; expected one of {BACKEND_NAMES}")
    params = params or ClioParams.prototype()
    if name == "clio":
        capacity = (params.backend.dram_capacity
                    or params.cboard.dram_capacity)
        cluster = ClioCluster(params=params, seed=seed, mn_capacity=capacity)
        return ClioMemory(cluster.cn(0).process("mn0").thread())
    env = Environment()
    if name == "cxl":
        return CXLPool(env, params).host("host0")
    rng = RandomStream(seed, name.removesuffix("-bf"))
    if name == "rdma":
        return RDMAMemoryNode(env, params, rng=rng)
    if name == "clover":
        store = CloverStore(env, params, rng=rng)
        env.run(until=env.process(store.setup()))
        return store
    return ServedMemoryNode(env, params, name, rng=rng)


def sample_latencies(name: str, sizes: Sequence[int], ops: int, write: bool,
                     params: Optional[ClioParams] = None,
                     seed: int = 0) -> list[list[int]]:
    """Latencies (ns) of ``ops`` loads -- or stores, when ``write`` -- at
    offset 0 of one allocation (``REGION_BYTES``, or the largest size) on
    a fresh ``name`` backend, one list per size.  One untimed store per
    size primes the range first."""
    memory = create_backend(name, params, seed)
    samples: list[list[int]] = []

    def app():
        region = yield from memory.alloc(max(REGION_BYTES, *sizes))
        for size in sizes:
            payload = b"s" * size
            yield from memory.store(region, 0, payload)
            latencies = []
            for _ in range(ops):
                if write:
                    latency = yield from memory.store(region, 0, payload)
                else:
                    _, latency = yield from memory.load(region, 0, size)
                latencies.append(latency)
            samples.append(latencies)

    memory.env.run(until=memory.env.process(app()))
    return samples
