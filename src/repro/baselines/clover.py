"""Clover adapted as passive disaggregated memory (paper sections 2.3, 7).

The MN is raw memory with zero processing; all management runs at the
clients.  Consequences the model reproduces:

* writes take at least **two RTTs** (out-of-place write, then metadata
  pointer update via CAS) to deliver consistency without MN processing;
* reads take one RTT, plus an occasional extra chase when the metadata
  cursor is stale under contention;
* the CN burns extra cycles on space management — which is why Clover's
  *energy* lands slightly above Clio's despite the passive MN (Figure 18).

A version takes ``ceil(len / VALUE_SLOT)`` contiguous 1 KB slots of the
registered region: fresh slots first, then those a replaced version
gave back.

For the comparison verbs (:mod:`repro.baselines.api`) the store is
driven as memory: an allocation is a client-side ``(base, size)``
extent, and each written range is one key, ``(base, offset)``.  A read
of a range written as a unit returns those bytes (out of its version's
slots); a never-written range reads as zeros.  ``free`` drops the
extent's versions.
"""

from __future__ import annotations

from typing import Optional

from repro.baselines.rdma import Extents, RDMAMemoryNode
from repro.params import ClioParams
from repro.sim import Environment
from repro.sim.rng import RandomStream


class CloverStore:
    """Client-managed key-value store on a passive MN (over RDMA)."""

    VALUE_SLOT = 1 << 10   # fixed slot per version (1 KB values in YCSB)

    def __init__(self, env: Environment, params: ClioParams,
                 rng: Optional[RandomStream] = None):
        self.env = env
        self.params = params
        self.clover = params.clover
        self.rng = rng or RandomStream(0, "clover")
        # The substrate is plain RDMA to raw memory.
        self.rdma_node = RDMAMemoryNode(
            env, params, rng=(rng or RandomStream(0, "clover")).fork("rdma"))
        self._setup_done = False
        self._qp = None
        self._region = None
        # Client-side metadata: key -> (first slot, slots) of the newest
        # version; the verbs' extents, and the keys written in each.
        slots = params.backend.capacity_slots
        self._index: dict[bytes, tuple[int, int]] = {}
        self._slots = Extents(slots)
        self._extents = Extents(slots * self.VALUE_SLOT)
        self._written: dict[tuple[int, int], set[bytes]] = {}
        self.extra_chases = 0
        # Energy accounting: CN-side management cycles.
        self.cn_mgmt_busy_ns = 0

    def setup(self):
        """Process-generator: register the backing region (pinned — PDM
        systems require physical pinning, one of the paper's criticisms).

        The slot count comes from ``ClioParams.backend.capacity_slots``.
        """
        slots = self.params.backend.capacity_slots
        self._qp = self.rdma_node.create_qp()
        self._region = yield from self.rdma_node.register_mr(
            slots * self.VALUE_SLOT, pinned=True)
        self._setup_done = True

    def _management_ns(self) -> int:
        cost = self.clover.metadata_lookup_ns
        self.cn_mgmt_busy_ns += cost
        return cost

    def put(self, key: bytes, value: bytes):
        """Process-generator: out-of-place write + CAS pointer flip (2 RTTs).

        Returns latency_ns.
        """
        if not self._setup_done:
            raise RuntimeError("call setup() first")
        start = self.env.now
        yield self.env.timeout(self._management_ns())
        version = self._slots.take(max(1, -(-len(value) // self.VALUE_SLOT)))
        offset = version[0] * self.VALUE_SLOT
        # RTT 1: write the new version out of place.
        yield from self.rdma_node.write(self._qp, self._region, offset, value)
        # RTT 2 (+ more under contention): CAS the metadata pointer.  The
        # pointer itself is the client's index, so the CAS swaps a word
        # for itself and leaves the version's bytes as written.
        extra_rtts = self.clover.write_round_trips - 2
        if self.rng.chance(self.clover.cursor_chase_probability):
            extra_rtts += 1
            self.extra_chases += 1
        for _ in range(1 + max(0, extra_rtts)):
            yield from self.rdma_node.atomic_cas(
                self._qp, self._region, offset, 0, 0)
        replaced = self._index.get(key := bytes(key))
        self._index[key] = version
        if replaced is not None:
            self._slots.release(replaced)
        return self.env.now - start

    def get(self, key: bytes):
        """Process-generator: 1 RTT read (plus occasional stale chase).

        Returns (value, latency_ns); value is None for a missing key.
        """
        if not self._setup_done:
            raise RuntimeError("call setup() first")
        start = self.env.now
        yield self.env.timeout(self._management_ns())
        version = self._index.get(bytes(key))
        if version is None:
            return None, self.env.now - start
        slot, slots = version
        if self.rng.chance(self.clover.cursor_chase_probability):
            # Stale cursor: one extra chase read.
            self.extra_chases += 1
            yield from self.rdma_node.read(self._qp, self._region,
                                           slot * self.VALUE_SLOT, 8)
        data, _ = yield from self.rdma_node.read(
            self._qp, self._region, slot * self.VALUE_SLOT,
            slots * self.VALUE_SLOT)
        return data, self.env.now - start

    # -- the comparison verbs: one key per written range ---------------------------------

    def alloc(self, size: int):
        """Process-generator: passive memory, so allocation is client-side
        bookkeeping; returns a ``(base, size)`` extent."""
        extent = self._extents.take(size)
        self._written[extent] = set()
        yield self.env.timeout(0)
        return extent

    def free(self, extent: tuple[int, int]):
        self._extents.release(extent)
        for key in self._written.pop(extent):
            self._slots.release(self._index.pop(key))
        yield self.env.timeout(0)

    def _range_key(self, extent: tuple[int, int], offset: int,
                   size: int) -> bytes:
        self._extents.address(extent, offset, size)   # a live range
        return b"%d:%d" % (extent[0], offset)

    def load(self, extent: tuple[int, int], offset: int, size: int):
        value, latency = yield from self.get(
            self._range_key(extent, offset, size))
        if value is None:
            return bytes(size), latency
        return value[:size].ljust(size, b"\0"), latency

    def store(self, extent: tuple[int, int], offset: int, data: bytes):
        key = self._range_key(extent, offset, len(data))
        latency = yield from self.put(key, data)
        self._written[extent].add(key)
        return latency
