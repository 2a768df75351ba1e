"""The cache directory: per-line ownership registry + invalidation.

One :class:`CacheDirectory` serves the whole cluster.  It is attached to
the topology as a node named ``cachedir`` living on the switch partition
(same propagation/forwarding cost as reaching the ToR), and tracks, per
cache line key ``(mn, pid, line_va)``, which CNs hold a copy and which —
at most one — owns it dirty (write-back).

Protocol messages (all over the simulated fabric, so they are subject to
loss, corruption, and link faults):

* CN -> directory: :class:`CacheReq` carried in a ``CACHE_REQ`` request
  (``fill`` / ``wbegin`` / ``wend`` / ``sync`` / ``depart``), answered
  with a normal ``RESPONSE``.  The CN transport retries these like any
  request; the directory dedups retries by the original request ID and
  re-answers completed ones instead of re-executing.
* directory -> CN: :class:`InvalMsg` carried in a ``CACHE_INVAL`` packet
  (``recall`` = flush-if-dirty then drop, ``downgrade`` = flush then
  keep a shared clean copy), retransmitted with exponential backoff
  until the CN acks — coherence requires delivery, so retransmission is
  unbounded (harness deadlines bound wall time; see docs/caching.md).

Write transactions hold per-key FIFO locks from ``wbegin`` until the
CN's ``wend``, so a fill for a key under write is simply queued — the
stale-fill race cannot happen.  Multi-key operations acquire locks in
sorted key order, which makes lock-order deadlocks impossible.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass
from typing import Optional

from repro.core.cboard import ResponseBody
from repro.core.pipeline import Status
from repro.net.packet import ClioHeader, Packet, PacketType
from repro.params import ClioParams
from repro.sim import Environment
from repro.telemetry.metrics import MetricsRegistry, StatsView
from repro.telemetry.spans import Tracer
from repro.transport.clib_transport import _request_ids

#: Node name the directory registers on the topology.
DIRECTORY_NODE = "cachedir"


@dataclass(frozen=True, slots=True)
class CacheReq:
    """One CN -> directory request (the CACHE_REQ payload).

    ``keys`` are ``(mn, pid, line_va)`` tuples.  ``drops`` piggybacks
    lines the CN evicted since its last message, so the directory can
    trim its sharer sets lazily (a stale sharer entry only costs a
    spurious recall, which the CN trivially acks).
    """

    op: str                       # fill | wbegin | wend | sync | depart
    pid: int
    mn: str
    keys: tuple = ()
    txn_id: int = 0               # wbegin/wend pairing, scoped to the CN
    want_owner: bool = False      # wbegin: take exclusive (write-back) ownership
    include_self: bool = False    # wbegin: recall the requester's copy too
    drops: tuple = ()             # evicted keys, processed before the op


@dataclass(frozen=True, slots=True)
class InvalMsg:
    """One directory -> CN invalidation (the CACHE_INVAL payload)."""

    seq: int                      # dedup key across retransmissions
    action: str                   # recall | downgrade
    keys: tuple


class _Entry:
    """Directory state for one cache line key."""

    __slots__ = ("sharers", "owner")

    def __init__(self):
        self.sharers: set[str] = set()
        self.owner: Optional[str] = None


class _ReqState:
    """Dedup state for one logical CACHE_REQ (original + retries)."""

    __slots__ = ("reply_src", "reply_id", "done", "response")

    def __init__(self, reply_src: str, reply_id: int):
        self.reply_src = reply_src
        self.reply_id = reply_id      # latest attempt's ID: answer that one
        self.done = False
        self.response: Optional[ResponseBody] = None


class CacheDirectory:
    """Cluster-wide cache-line directory, reachable as node ``cachedir``."""

    #: Completed requests remembered for retry re-answering before being
    #: forgotten; a retry can only arrive within max_retries timeouts of
    #: the original, far fewer than this many directory requests.
    DONE_MEMORY = 8192

    def __init__(self, env: Environment, topology, params: ClioParams,
                 registry: Optional[MetricsRegistry] = None):
        self.env = env
        self.name = DIRECTORY_NODE
        self.topology = topology
        self.params = params
        self._net = params.network
        self._cacheparams = params.cache
        self._inval_timeout_ns = params.clib.timeout_ns
        self._inval_timeout_cap = params.clib.slow_timeout_ns
        self._lines: dict[tuple, _Entry] = {}
        #: key -> [held, deque of waiter events]; release hands the lock
        #: to the first waiter (FIFO), or deletes the slot when idle.
        self._locks: dict[tuple, list] = {}
        #: (cn, txn_id) -> locked keys of an open write transaction.
        self._txns: dict[tuple, tuple] = {}
        #: wend-before-wbegin arrivals (the CN's wbegin request exhausted
        #: transport retries *after* we executed it): the completing
        #: wbegin sees its txn here and releases immediately.
        self._aborted: set[tuple] = set()
        self._aborted_order: deque = deque()
        self._reqs: dict[int, _ReqState] = {}
        self._done_order: deque = deque()
        #: invalidation retransmission state.
        self._seq_ids = itertools.count(1)
        self._pending_invals: dict[int, int] = {}   # request_id -> seq
        self._acked: set[int] = set()
        self._waiters: dict[int, object] = {}
        # Counters (function-backed telemetry views below).
        self.requests_served = 0
        self.fills = 0
        self.write_txns = 0
        self.syncs = 0
        self.recalls = 0          # recall messages sent (first transmission)
        self.downgrades = 0
        self.invals_sent = 0
        self.inval_retries = 0
        self.freezes = 0
        self.tracer: Optional[Tracer] = None
        topology.add_node(self.name, self.receive, node_env=env)
        metrics = (registry if registry is not None
                   else MetricsRegistry()).scope("cache.dir")
        self._stats = StatsView({
            "requests_served": metrics.counter(
                "requests_served", fn=lambda: self.requests_served),
            "fills": metrics.counter("fills", fn=lambda: self.fills),
            "write_txns": metrics.counter(
                "write_txns", fn=lambda: self.write_txns),
            "syncs": metrics.counter("syncs", fn=lambda: self.syncs),
            "recalls": metrics.counter("recalls", fn=lambda: self.recalls),
            "downgrades": metrics.counter(
                "downgrades", fn=lambda: self.downgrades),
            "invals_sent": metrics.counter(
                "invals_sent", fn=lambda: self.invals_sent),
            "inval_retries": metrics.counter(
                "inval_retries", "CACHE_INVAL retransmissions",
                fn=lambda: self.inval_retries),
            "freezes": metrics.counter(
                "freezes", "region freezes (migration/free recall)",
                fn=lambda: self.freezes),
        })
        metrics.gauge("tracked_lines", "keys with at least one cached copy",
                      fn=lambda: len(self._lines))
        metrics.gauge("open_txns", "write transactions holding locks",
                      fn=lambda: len(self._txns))

    def stats(self) -> dict:
        return self._stats.snapshot()

    # -- receive side ------------------------------------------------------------

    def receive(self, packet: Packet) -> None:
        header = packet.header
        if packet.corrupt:
            return                      # dropped; the sender retries
        if header.packet_type is PacketType.RESPONSE:
            # A CN acking one of our CACHE_INVALs.
            seq = self._pending_invals.get(header.request_id)
            if seq is None:
                return
            self._acked.add(seq)
            waiter = self._waiters.get(seq)
            if waiter is not None and not waiter.triggered:
                waiter.succeed()
            return
        if header.packet_type is not PacketType.CACHE_REQ:
            return
        orig = header.retry_of if header.retry_of is not None else header.request_id
        state = self._reqs.get(orig)
        if state is not None:
            # A retry of a request we have already seen: remember the new
            # attempt ID (the CN only listens on its latest) and, if the
            # op already ran, just re-answer — never re-execute.
            state.reply_id = header.request_id
            if state.done:
                self._respond(state)
            return
        state = _ReqState(reply_src=header.src, reply_id=header.request_id)
        self._reqs[orig] = state
        self.env.process(self._serve(packet.payload, header.src, state, orig))

    def _respond(self, state: _ReqState) -> None:
        header = ClioHeader(
            src=self.name, dst=state.reply_src, request_id=state.reply_id,
            packet_type=PacketType.RESPONSE)
        self.topology.send(Packet(
            header=header, payload=state.response,
            wire_bytes=self._net.header_bytes, sent_at=self.env.now))

    def set_tracer(self, tracer: Optional[Tracer]) -> None:
        """Enable/disable span tracing of directory requests."""
        self.tracer = tracer
        if tracer is not None:
            self._op_sites = tracer.sites("dir:", "cache", self.name,
                                          ("src", "keys"))

    def _serve(self, req: CacheReq, src: str, state: _ReqState, orig: int):
        yield self.env.timeout(self._cacheparams.dir_process_ns)
        tracer = self.tracer
        span = (tracer.begin(self._op_sites[req.op], src, len(req.keys))
                if tracer is not None else None)
        self._apply_drops(req.drops, src)
        if req.op == "fill":
            value = yield from self._op_fill(req, src)
        elif req.op == "wbegin":
            value = yield from self._op_wbegin(req, src)
        elif req.op == "wend":
            value = self._op_wend(req, src)
        elif req.op == "sync":
            value = yield from self._op_sync(req, src)
        elif req.op == "depart":
            value = self._op_depart(src)
        else:
            raise ValueError(f"unknown cache directory op {req.op!r}")
        self.requests_served += 1
        state.response = ResponseBody(status=Status.OK, value=value)
        state.done = True
        self._done_order.append(orig)
        while len(self._done_order) > self.DONE_MEMORY:
            self._reqs.pop(self._done_order.popleft(), None)
        if tracer is not None:
            tracer.end(span)
        self._respond(state)

    # -- per-key FIFO locks --------------------------------------------------------

    def _acquire(self, key: tuple):
        slot = self._locks.get(key)
        if slot is None:
            self._locks[key] = [True, deque()]
            return
        if not slot[0]:
            slot[0] = True
            return
        waiter = self.env.event()
        slot[1].append(waiter)
        yield waiter                    # woken holding the lock (handoff)

    def _release(self, key: tuple) -> None:
        slot = self._locks.get(key)
        if slot is None:
            return
        if slot[1]:
            slot[1].popleft().succeed()  # hand the lock to the next waiter
        else:
            del self._locks[key]

    def _locked(self, key: tuple) -> bool:
        return key in self._locks

    # -- ops -----------------------------------------------------------------------

    def _apply_drops(self, drops: tuple, src: str) -> None:
        """Trim sharer sets for lines the CN evicted (lock-free: a stale
        entry is benign, an eager trim only skips a spurious recall)."""
        for key in drops:
            entry = self._lines.get(key)
            if entry is None:
                continue
            entry.sharers.discard(src)
            if entry.owner == src:
                entry.owner = None
            if not entry.sharers and entry.owner is None \
                    and not self._locked(key):
                del self._lines[key]

    def _op_fill(self, req: CacheReq, src: str):
        key = req.keys[0]
        yield from self._acquire(key)
        try:
            entry = self._lines.get(key)
            if entry is not None and entry.owner == src:
                # The requesting node itself owns the line dirty (its fill
                # raced a local write transaction).  Reading the MN now
                # would return stale bytes — tell the CN to serve locally.
                return {"owner_local": True}
            if entry is None:
                entry = self._lines[key] = _Entry()
            if entry.owner is not None:
                yield from self._notify(entry.owner, "downgrade", (key,))
                self.downgrades += 1
                entry.sharers.add(entry.owner)
                entry.owner = None
            entry.sharers.add(src)
            self.fills += 1
            return {"owner_local": False}
        finally:
            self._release(key)

    def _op_wbegin(self, req: CacheReq, src: str):
        keys = tuple(sorted(req.keys))
        for key in keys:
            yield from self._acquire(key)
        targets: dict[str, list] = {}
        for key in keys:
            entry = self._lines.get(key)
            if entry is None:
                continue
            holders = set(entry.sharers)
            if entry.owner is not None:
                holders.add(entry.owner)
            for cn in holders:
                if cn == src and not req.include_self:
                    continue
                targets.setdefault(cn, []).append(key)
        if targets:
            self.recalls += len(targets)
            recalls = [self.env.process(self._notify(cn, "recall", tuple(ks)))
                       for cn, ks in sorted(targets.items())]
            yield self.env.all_of(recalls)
        for key in keys:
            entry = self._lines.get(key)
            keeps_copy = (entry is not None and not req.include_self
                          and (src in entry.sharers or entry.owner == src))
            if entry is None:
                if not (req.want_owner or keeps_copy):
                    continue
                entry = self._lines[key] = _Entry()
            entry.owner = src if req.want_owner else None
            entry.sharers = ({src} if keeps_copy and not req.want_owner
                             else set())
            if not entry.sharers and entry.owner is None:
                del self._lines[key]
        self.write_txns += 1
        txn = (src, req.txn_id)
        if txn in self._aborted:
            # The CN already gave up on this transaction (its wbegin
            # request exhausted retries and it sent wend) — don't leave
            # the locks held forever.
            self._aborted.discard(txn)
            for key in keys:
                self._release(key)
        else:
            self._txns[txn] = keys
        return {"granted": True}

    def _op_wend(self, req: CacheReq, src: str):
        txn = (src, req.txn_id)
        keys = self._txns.pop(txn, None)
        if keys is None:
            # wend for a transaction we have not (yet) completed: either a
            # duplicate (harmless) or the wbegin is still queued behind
            # other locks — record the abort so it releases on completion.
            self._aborted.add(txn)
            self._aborted_order.append(txn)
            while len(self._aborted_order) > self.DONE_MEMORY:
                self._aborted.discard(self._aborted_order.popleft())
            return {"released": False}
        for key in keys:
            self._release(key)
        return {"released": True}

    def _op_sync(self, req: CacheReq, src: str):
        """Flush every dirty owner of ``keys`` back to the MN (write-back
        bypass reads): owners — including the requester's own node — are
        downgraded to shared, so the MN holds current bytes."""
        keys = tuple(sorted(req.keys))
        for key in keys:
            yield from self._acquire(key)
        try:
            targets: dict[str, list] = {}
            for key in keys:
                entry = self._lines.get(key)
                if entry is not None and entry.owner is not None:
                    targets.setdefault(entry.owner, []).append(key)
            if targets:
                flushes = [
                    self.env.process(self._notify(cn, "downgrade", tuple(ks)))
                    for cn, ks in sorted(targets.items())]
                yield self.env.all_of(flushes)
                for key in keys:
                    entry = self._lines.get(key)
                    if entry is not None and entry.owner is not None:
                        entry.sharers.add(entry.owner)
                        entry.owner = None
            self.syncs += 1
            return {"synced": True}
        finally:
            for key in keys:
                self._release(key)

    def _op_depart(self, src: str):
        """Forget every copy a departing CN holds (its cache flushed and
        dropped everything locally before sending this)."""
        for key in list(self._lines):
            entry = self._lines[key]
            entry.sharers.discard(src)
            if entry.owner == src:
                entry.owner = None
            if not entry.sharers and entry.owner is None \
                    and not self._locked(key):
                del self._lines[key]
        return {"departed": True}

    # -- region freeze (migration / free) -------------------------------------------

    def region_keys(self, mn: str, pid: int, va: int, size: int) -> tuple:
        """Every line key overlapping ``[va, va+size)`` on ``mn``."""
        line = self._cacheparams.line_bytes
        first = va - (va % line)
        return tuple((mn, pid, line_va)
                     for line_va in range(first, va + size, line))

    def freeze_region(self, pid: int, mn: str, va: int, size: int):
        """Process-generator: recall every cached copy of a region and
        return with all its line locks HELD.

        Used by the controller before migrating or freeing a region:
        dirty lines are flushed back to the *source* board (so the copy
        loop reads current bytes), every copy is dropped, and cache
        traffic for the region stays blocked until
        :meth:`release_region`.  Returns the token to release.
        """
        keys = self.region_keys(mn, pid, va, size)
        for key in keys:
            yield from self._acquire(key)
        targets: dict[str, list] = {}
        for key in keys:
            entry = self._lines.get(key)
            if entry is None:
                continue
            holders = set(entry.sharers)
            if entry.owner is not None:
                holders.add(entry.owner)
            for cn in holders:
                targets.setdefault(cn, []).append(key)
        if targets:
            recalls = [self.env.process(self._notify(cn, "recall", tuple(ks)))
                       for cn, ks in sorted(targets.items())]
            yield self.env.all_of(recalls)
        for key in keys:
            self._lines.pop(key, None)
        self.freezes += 1
        return keys

    def release_region(self, keys: tuple) -> None:
        for key in keys:
            self._release(key)

    # -- invalidation transmission ----------------------------------------------------

    def _notify(self, cn: str, action: str, keys: tuple):
        """Process-generator: deliver one InvalMsg to ``cn``, retransmitting
        with exponential backoff until acked.

        Every attempt uses a fresh request ID (all mapping back to one
        ``seq``, which the CN dedups on), so a late ack of an earlier
        attempt still counts.  Retransmission is unbounded: an unacked
        invalidation would silently break coherence, so the directory
        keeps trying — a dead CN's transport is still simulated and acks
        after its link recovers.
        """
        seq = next(self._seq_ids)
        attempt_ids = []
        self.invals_sent += 1
        timeout_ns = self._inval_timeout_ns
        attempt = 0
        while seq not in self._acked:
            request_id = next(_request_ids)
            attempt_ids.append(request_id)
            self._pending_invals[request_id] = seq
            if attempt > 0:
                self.inval_retries += 1
            header = ClioHeader(
                src=self.name, dst=cn, request_id=request_id,
                packet_type=PacketType.CACHE_INVAL)
            self.topology.send(Packet(
                header=header, payload=InvalMsg(seq=seq, action=action,
                                                keys=keys),
                wire_bytes=self._net.header_bytes
                + self._net.subop_header_bytes * len(keys),
                sent_at=self.env.now))
            waiter = self.env.event()
            self._waiters[seq] = waiter

            def expire(w=waiter):
                if not w.triggered:
                    w.succeed()

            self.env.schedule_callback(timeout_ns, expire)
            yield waiter
            attempt += 1
            timeout_ns = min(timeout_ns * 2, self._inval_timeout_cap)
        self._acked.discard(seq)
        self._waiters.pop(seq, None)
        for request_id in attempt_ids:
            self._pending_invals.pop(request_id, None)
