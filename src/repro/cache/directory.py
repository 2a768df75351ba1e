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

What each op sends to whom, and what it makes of each line's entry, is
:data:`repro.cache.protocol.DIR_TABLE`; every op that touches entries
runs the one procedure that reads it (:meth:`CacheDirectory._coherent`:
lock, notify the holders, settle the entries).

Write transactions hold per-key FIFO locks from ``wbegin`` until the
CN's ``wend``, so a fill for a key under write is simply queued — the
stale-fill race cannot happen.  Multi-key operations acquire locks in
sorted key order, which makes lock-order deadlocks impossible.
"""

from __future__ import annotations

import itertools
from collections import defaultdict
from dataclasses import dataclass
from functools import partial
from typing import Optional

from repro.cache import protocol
from repro.core.cboard import ResponseBody
from repro.core.pipeline import Status
from repro.net.packet import Packet, PacketType
from repro.params import ClioParams
from repro.sim import Environment
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.spans import Tracer
from repro.transport.clib_transport import _request_ids

#: Node name the directory registers on the topology.
DIRECTORY_NODE = "cachedir"

#: Counter name -> help; each is an attribute and an instrument
#: (:meth:`MetricsScope.attribute_counters`).
_COUNTERS = {
    "requests_served": "",
    "fills": "",
    "write_txns": "",
    "syncs": "",
    "recalls": "",                  # messages sent (first transmission)
    "downgrades": "",
    "invals_sent": "",
    "inval_retries": "CACHE_INVAL retransmissions",
    "freezes": "region freezes (migration/free recall)",
}


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


#: A line nobody holds: ``(owner, sharers)``, as ``_lines`` stores them.
_NOBODY = (None, frozenset())


def _holder(owner: Optional[str], sharers: frozenset,
            src: Optional[str]) -> str:
    """Who holds the line: a member of :data:`protocol.HOLDERS`."""
    if owner is not None:
        return "self" if owner == src else "owner"
    return "sharers" if sharers else "neither"


class CacheDirectory:
    """Cluster-wide cache-line directory, reachable as node ``cachedir``."""

    #: Finished requests / aborted transactions remembered.
    DONE_MEMORY = 8192

    def __init__(self, env: Environment, topology, params: ClioParams,
                 registry: Optional[MetricsRegistry] = None):
        self.env = env
        self.name = DIRECTORY_NODE
        self.topology = topology
        self.params = params
        #: key -> (owner CN or None, frozenset of sharer CNs); absent
        #: when nobody holds the line.
        self._lines: dict[tuple, tuple] = {}
        #: key -> its lock, while held or waited for; write transactions
        #: and freezes keep theirs across requests.
        self._locks: dict[tuple, protocol.FifoLock] = defaultdict(
            partial(protocol.FifoLock, env))
        #: (cn, txn_id) -> locked keys of an open write transaction.
        self._txns: dict[tuple, tuple] = {}
        #: wend-before-wbegin arrivals (the CN's wbegin request exhausted
        #: transport retries *after* we executed it): the completing
        #: wbegin sees its txn here and releases immediately.
        self._aborted: dict[tuple, None] = {}     # oldest first
        #: Completed requests are remembered for retry re-answering; a
        #: retry can only arrive within max_retries timeouts of the
        #: original, far fewer than DONE_MEMORY directory requests.
        self._reqs = protocol.AnswerOnce(self.DONE_MEMORY, self.name,
                                         topology, env, params)
        #: invalidation retransmission state.
        self._seq_ids = itertools.count(1)
        self._pending_invals: dict[int, int] = {}   # request_id -> seq
        self._acked: set[int] = set()
        self._waiters: dict[int, object] = {}
        self.tracer: Optional[Tracer] = None
        topology.add_node(self.name, self.receive, node_env=env)
        self.metrics = metrics = (
            registry if registry is not None
            else MetricsRegistry()).scope("cache.dir")
        metrics.attribute_counters(self, _COUNTERS)
        metrics.gauge("tracked_lines", "keys with at least one cached copy",
                      fn=lambda: len(self._lines))
        metrics.gauge("open_txns", "write transactions holding locks",
                      fn=lambda: len(self._txns))

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
        # Retries are deduped by the original request ID: the op runs
        # once, its latest attempt is answered.
        orig = header.retry_of if header.retry_of is not None else header.request_id
        if self._reqs.first(orig, header.src, header.request_id):
            self.env.process(self._serve(packet.payload, header.src, orig))

    def set_tracer(self, tracer: Optional[Tracer]) -> None:
        """Enable/disable span tracing of directory requests."""
        self.tracer = tracer
        if tracer is not None:
            self._op_sites = tracer.sites("dir:", "cache", self.name,
                                          ("src", "keys"))

    def _serve(self, req: CacheReq, src: str, orig: int):
        yield self.env.timeout(self.params.cache.dir_process_ns)
        tracer = self.tracer
        span = (tracer.begin(self._op_sites[req.op], src, len(req.keys))
                if tracer is not None else None)
        # A departing CN flushed and dropped everything before saying so.
        self._settle("drop", (list(self._lines) if req.op == "depart"
                              else req.drops), src)
        if req.op == "fill":
            value = yield from self._op_fill(req, src)
        elif req.op == "wbegin":
            value = yield from self._op_wbegin(req, src)
        elif req.op == "wend":
            value = self._op_wend(req, src)
        elif req.op == "sync":
            value = yield from self._op_sync(req, src)
        elif req.op == "depart":
            value = {"departed": True}
        else:
            raise ValueError(f"unknown cache directory op {req.op!r}")
        self.requests_served += 1
        if tracer is not None:
            tracer.end(span)
        self._reqs.finish(orig, ResponseBody(status=Status.OK, value=value))

    # -- per-key FIFO locks --------------------------------------------------------

    def _release(self, keys: tuple) -> None:
        for key in keys:
            lock = self._locks[key]
            lock.release()
            if not lock.held:
                del self._locks[key]

    # -- the line protocol: look each key's row up, do what it says -----------------

    def _coherent(self, op: str, keys: tuple, src: Optional[str],
                  spawn: bool = True):
        """Process-generator: the step every coherent op shares.  Lock
        ``keys`` (in sorted order, which makes lock-order deadlocks
        impossible), deliver the CACHE_INVALs their rows send and wait
        for the acks, then make each entry what its row says.  Returns
        ``(keys, rows)`` with the locks HELD."""
        keys = tuple(sorted(keys))
        for key in keys:
            yield from self._locks[key].acquire()
        try:
            yield from self._send(op, keys, src, spawn)
            return keys, self._settle(op, keys, src)
        except BaseException:
            self._release(keys)
            raise

    def _send(self, op: str, keys: tuple, src: Optional[str], spawn: bool):
        """Holders -> one message per CN -> delivered, in parallel when
        ``spawn`` (a fill has one key and at most one target, and
        delivers inline)."""
        targets: dict[tuple, tuple] = {}
        for key in keys:
            owner, sharers = self._lines.get(key, _NOBODY)
            row = protocol.DIR_TABLE[_holder(owner, sharers, src), op]
            if row.send is not None:
                for cn in protocol.TARGETS[row.to](owner, sharers, src):
                    targets.setdefault((cn, row.send),
                                       (row, []))[1].append(key)
        sends = []
        for (cn, action), (row, cn_keys) in sorted(targets.items()):
            protocol.bump(self, row.count)
            sends.append(self._notify(cn, action, tuple(cn_keys)))
        if spawn and sends:
            yield self.env.all_of([self.env.process(send) for send in sends])
        else:
            for send in sends:
                yield from send

    def _settle(self, op: str, keys, src: Optional[str]) -> list:
        """Make each key's entry what its row's edits say; returns the
        rows taken.  Lock-free for ``drop`` (a stale entry is benign, an
        eager trim only skips a spurious recall)."""
        rows = []
        for key in keys:
            owner, sharers = self._lines.get(key, _NOBODY)
            row = protocol.DIR_TABLE[_holder(owner, sharers, src), op]
            rows.append(row)
            for edit in row.edits:
                owner, sharers = protocol.EDITS[edit](owner, sharers, src)
            if owner is not None or sharers:
                self._lines[key] = (owner, sharers)
            else:
                self._lines.pop(key, None)
        return rows

    # -- ops -----------------------------------------------------------------------

    def _op_fill(self, req: CacheReq, src: str):
        keys, (row,) = yield from self._coherent("fill", req.keys, src,
                                                 spawn=False)
        if not row.local:
            self.fills += 1
        self._release(keys)
        # ``owner_local``: the requesting node itself owns the line dirty
        # (its fill raced a local write transaction).  Reading the MN now
        # would return stale bytes — the CN serves locally.
        return {"owner_local": row.local}

    def _op_wbegin(self, req: CacheReq, src: str):
        op = ("wbegin+owner" if req.want_owner
              else "wbegin+self" if req.include_self else "wbegin")
        keys, _ = yield from self._coherent(op, req.keys, src)
        self.write_txns += 1
        txn = (src, req.txn_id)
        if txn in self._aborted:
            # The CN already gave up on this transaction (its wbegin
            # request exhausted retries and it sent wend) — don't leave
            # the locks held forever.
            del self._aborted[txn]
            self._release(keys)
        else:
            self._txns[txn] = keys
        return {"granted": True}

    def _op_wend(self, req: CacheReq, src: str):
        txn = (src, req.txn_id)
        keys = self._txns.pop(txn, None)
        if keys is not None:
            self._release(keys)
        else:
            # wend for a transaction we have not (yet) completed: either a
            # duplicate (harmless) or the wbegin is still queued behind
            # other locks — record the abort so it releases on completion.
            self._aborted[txn] = None
            while len(self._aborted) > self.DONE_MEMORY:
                del self._aborted[next(iter(self._aborted))]
        return {"released": keys is not None}

    def _op_sync(self, req: CacheReq, src: str):
        """Flush every dirty owner of ``keys`` back to the MN (write-back
        bypass reads): owners — including the requester's own node — are
        downgraded to shared, so the MN holds current bytes."""
        keys, _ = yield from self._coherent("sync", req.keys, src)
        self.syncs += 1
        self._release(keys)
        return {"synced": True}

    # -- region freeze (migration / free) -------------------------------------------

    def freeze_region(self, pid: int, mn: str, va: int, size: int):
        """Process-generator: recall every cached copy of a region and
        return with all its line locks HELD.

        Used by the controller before migrating or freeing a region:
        dirty lines are flushed back to the *source* board (so the copy
        loop reads current bytes), every copy is dropped, and cache
        traffic for the region queues on the locks until
        :meth:`release_region`.  Returns the token to release.
        """
        keys, _ = yield from self._coherent("freeze", protocol.line_keys(
            mn, pid, va, size, self.params.cache.line_bytes), None)
        self.freezes += 1
        return keys

    def release_region(self, keys: tuple) -> None:
        self._release(keys)

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
        msg = InvalMsg(seq=seq, action=action, keys=keys)
        attempt_ids = []
        self.invals_sent += 1
        timeout_ns = self.params.clib.timeout_ns
        net = self.params.network
        wire_bytes = net.header_bytes + net.subop_header_bytes * len(keys)
        while seq not in self._acked:
            if attempt_ids:
                self.inval_retries += 1
            request_id = next(_request_ids)
            attempt_ids.append(request_id)
            self._pending_invals[request_id] = seq
            protocol.post(self.topology, self.env, PacketType.CACHE_INVAL,
                          self.name, cn, request_id, msg, wire_bytes)
            waiter = self.env.event()
            self._waiters[seq] = waiter

            def expire(w=waiter):
                if not w.triggered:
                    w.succeed()

            self.env.schedule_callback(timeout_ns, expire)
            yield waiter
            timeout_ns = min(timeout_ns * 2,
                             self.params.clib.slow_timeout_ns)
        self._acked.discard(seq)
        self._waiters.pop(seq, None)
        for request_id in attempt_ids:
            self._pending_invals.pop(request_id, None)
