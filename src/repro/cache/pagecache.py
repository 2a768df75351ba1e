"""CN-local hot-page cache: line store, interception, and coherence.

One :class:`PageCache` per ComputeNode.  ``ClioThread`` data ops route
through :meth:`read` / :meth:`write` on a cluster built with the caching
layer; everything that fits inside one cache line is served locally
when possible; larger accesses, atomics, and frees take guarded bypass
paths that keep the cached copies coherent.

What happens to a line (``(mn, pid, line_va)`` key) in each state on
each event is :data:`repro.cache.protocol.LINE_TABLE`; this file holds
one procedure per *kind* of step, each looking its row up: ``_retire``
(every way a line leaves or is downgraded), ``_commit_local`` (a
write-back write landing in a resident line with **zero network round
trips**, the whole point of the cache), ``_open_txn`` (a directory
write transaction, whose ``wend`` is sent on every exit).

Flushes retry unboundedly across board crashes (their bytes are
committed data the MN must eventually hold); a typed rejection (region
freed) abandons the bytes and counts ``flush_failures``.

Every MN data access is the uncached client's own ``mn_request`` (which
settles the window itself when nothing happens inside it) and every op
settles through its ``settle``, so the shadow oracle sees
cached ops exactly like direct ones, with one deliberate rule: *flush*
writes bypass the oracle — they re-materialize bytes whose write was
already recorded as committed, which is idempotent.  Hit tokens open at
serve time (a ~300ns window), and miss tokens open only after directory
admission, so a fill that waited out a board crash behind a write
transaction cannot trip the oracle's zero-retry epoch-fence rule.
"""

from __future__ import annotations

import itertools
from collections import OrderedDict
from dataclasses import dataclass
from typing import Optional

from repro.cache import protocol
from repro.cache.directory import DIRECTORY_NODE, CacheReq
from repro.clib.client import (RemoteAccessError, check_reply, mn_request,
                               open_window, settle)
from repro.core.cboard import ResponseBody
from repro.core.pipeline import Status
from repro.net.packet import Packet, PacketType
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.spans import Tracer
from repro.transport.clib_transport import RequestFailed

#: Counter name -> help; each is an attribute and an instrument
#: (:meth:`MetricsScope.attribute_counters`).
_COUNTERS = {
    "hits": "",
    "misses": "",
    "fills": "lines installed from the MN",
    "evictions": "",
    "invalidations": "line recalls/downgrades applied",
    "writebacks": "dirty lines flushed to the MN",
    "write_hits": "writes committed locally (owner hit)",
    "write_fills": "ownership grants that installed a line",
    "write_throughs": "",
    "flush_retries": "",
    "flush_failures": "dirty lines abandoned (region gone)",
}


class _Line:
    """One cached line (or the placeholder for one being filled) plus
    its local lock."""

    __slots__ = ("data", "state", "fill_event", "poisoned", "lock")

    def __init__(self, env, state: str, data: Optional[bytearray] = None):
        self.data = data
        self.state = state
        #: What local ops wait on while a placeholder's fill is in flight.
        self.fill_event = env.event() if data is None else None
        self.poisoned = False
        self.lock = protocol.FifoLock(env)


@dataclass(slots=True)
class _Guard:
    """An open directory write transaction: the ``wend`` it owes, and
    the retries its ``wbegin`` cost."""

    wend: CacheReq
    retries: int = 0


class PageCache:
    """The per-CN cache: local line store + directory client."""

    def __init__(self, node, registry: Optional[MetricsRegistry] = None):
        self.node = node
        self.env = node.env
        self.transport = node.transport
        self.params = node.params
        self.cacheparams = cacheparams = node.params.cache
        self.line_bytes = cacheparams.line_bytes
        self.capacity_lines = cacheparams.capacity_lines
        self.policy = cacheparams.policy
        self.hit_ns = cacheparams.hit_ns
        self._lines: dict[tuple, _Line] = {}
        self._lru: OrderedDict = OrderedDict()     # resident keys, LRU order
        self._txn_ids = itertools.count(1)
        self._pending_drops: set = set()
        self._allocs: dict[tuple, int] = {}        # (mn, pid, va) -> size
        #: CACHE_INVALs, deduped across retransmissions by their seq.
        self._invals = protocol.AnswerOnce(
            256, node.name, node.transport.topology, node.env, node.params)
        self.tracer: Optional[Tracer] = None
        node.transport.cache_listener = self.on_inval
        self.metrics = metrics = (
            registry if registry is not None
            else MetricsRegistry()).scope(f"cache.{node.name}")
        metrics.attribute_counters(self, _COUNTERS)
        metrics.gauge("hit_rate", "hits / (hits + misses)",
                      fn=lambda: self.hits / max(1, self.hits + self.misses))
        metrics.gauge("lines", "resident lines",
                      fn=lambda: len(self._lru))

    # -- geometry ------------------------------------------------------------------

    def cacheable(self, va: int, size: int) -> bool:
        """True when the access fits within a single cache line."""
        return 0 < size and (va % self.line_bytes) + size <= self.line_bytes

    def _key(self, thread, va: int) -> tuple:
        process = thread.process
        return (process.mn, process.pid, va - (va % self.line_bytes))

    # -- allocation tracking (for rfree invalidation) -------------------------------

    def note_alloc(self, mn: str, pid: int, va: int, size: int) -> None:
        self._allocs[(mn, pid, va)] = size

    def allocation_size(self, mn: str, pid: int, va: int) -> int:
        return self._allocs.get((mn, pid, va), 0)

    def forget_alloc(self, mn: str, pid: int, va: int) -> None:
        self._allocs.pop((mn, pid, va), None)

    # -- the line protocol: look a row up, do what it says ---------------------------

    def _row(self, line: Optional[_Line], event: str) -> protocol.LineRow:
        """The table row for ``event`` meeting ``line`` as it is now."""
        return protocol.LINE_TABLE[
            protocol.ABSENT if line is None else line.state, event]

    def _meet(self, key: tuple, event: str) -> tuple:
        """``(line, row)``: the line now under ``key`` (None if absent)
        and the row for ``event`` meeting it.  A row that poisons does so
        here: the fill in flight must not install what it brings."""
        line = self._lines.get(key)
        row = self._row(line, event)
        if row.poison:
            line.poisoned = True
        return line, row

    def _hold(self, key: tuple, line: _Line):
        """Process-generator: take ``line``'s lock.  False, with the lock
        released again, if the line was retired while we queued."""
        yield from line.lock.acquire()
        if self._lines.get(key) is line:
            return True
        line.lock.release()
        return False

    def _apply(self, key: tuple, line: _Line, row: protocol.LineRow) -> None:
        """Move ``line`` to ``row.next``, keeping the store, the LRU list
        and the counters in step.  Caller holds the line lock (or the
        line is a placeholder nobody can lock)."""
        if row.next == protocol.ABSENT:
            del self._lines[key]
            self._lru.pop(key, None)
            if row.drop:
                self._pending_drops.add(key)
        else:
            line.state = row.next
            self._lines[key] = line
            self._lru.setdefault(key)     # a new resident goes in hottest
        protocol.bump(self, row.count)

    def _retire(self, key: tuple, event: str):
        """Process-generator: every way a line leaves or is downgraded —
        ``evict`` / ``discard`` locally, ``recall`` /
        ``downgrade`` from the directory: lock, re-check identity, flush
        if the row says so, then become the row's next state."""
        line, row = self._meet(key, event)
        if row.next is None or not (yield from self._hold(key, line)):
            return
        try:
            row = self._row(line, event)   # as it is now that we hold it
            if row.flush:
                yield from self._flush_line(key, line)
            self._apply(key, line, row)
        finally:
            line.lock.release()

    def _take_drops(self) -> tuple:
        drops = tuple(sorted(self._pending_drops))
        self._pending_drops.clear()
        return drops

    def _enforce_capacity(self):
        while len(self._lru) > self.capacity_lines:
            victim = next((key for key in self._lru
                           if not self._lines[key].lock.held), None)
            if victim is None:
                return
            yield from self._retire(victim, "evict")

    # -- directory client -------------------------------------------------------------

    def _dir_request(self, req: CacheReq):
        return (yield from self.transport.request(
            DIRECTORY_NODE, PacketType.CACHE_REQ, pid=req.pid, payload=req))

    def _open_txn(self, pid: int, mn: str, keys: tuple, **flags):
        """Process-generator: open a directory write transaction on
        ``keys``; returns its :class:`_Guard`, which the caller passes
        to :meth:`guard_end` in a ``finally``.  The directory may have
        executed a ``wbegin`` whose response was lost, so a failure here
        sends the matching ``wend`` too: every exit releases."""
        txn_id = next(self._txn_ids)
        guard = _Guard(CacheReq("wend", pid, mn, txn_id=txn_id))
        try:
            outcome = yield from self._dir_request(CacheReq(
                "wbegin", pid, mn, keys=keys, txn_id=txn_id,
                drops=self._take_drops(), **flags))
        except BaseException:
            self.guard_end(guard)
            raise
        guard.retries = outcome.retries
        return guard

    def guard_end(self, guard: _Guard) -> None:
        """Release a directory write transaction in the background.

        The wend must eventually land or the directory's key locks stay
        held forever, so it retries past transport exhaustion.
        """
        self.env.process(self._persist(
            lambda: self._dir_request(guard.wend),
            self.params.clib.timeout_ns))

    def _persist(self, attempt, backoff: int, counter: Optional[str] = None):
        """Process-generator: ``yield from attempt()`` until the
        transport stops giving up on it, backing off exponentially; the
        one home of the layer's CN-side unbounded retries."""
        while True:
            try:
                return (yield from attempt())
            except RequestFailed:
                protocol.bump(self, counter)
                yield self.env.timeout(backoff)
                backoff = min(backoff * 2, self.params.clib.slow_timeout_ns)

    # -- flush --------------------------------------------------------------------------

    def _flush_line(self, key: tuple, line: _Line):
        """Write a dirty line's bytes back to its MN.

        No oracle hooks: these bytes were committed when their write-back
        write acked, so re-materializing them at the MN is idempotent.
        Transport exhaustion (board crashed) retries forever — the data
        must land; a typed rejection (region freed under us) abandons it.
        """
        mn, pid, line_va = key
        payload = bytes(line.data)
        outcome = yield from self._persist(
            lambda: self.transport.request(
                mn, PacketType.WRITE, pid=pid, va=line_va,
                size=len(payload), data=payload),
            self.cacheparams.flush_retry_ns, "flush_retries")
        try:
            check_reply(outcome, "flush({:#x})", line_va)
        except RemoteAccessError:
            self.flush_failures += 1
        else:
            self.writebacks += 1

    # -- invalidation (directory -> CN) ---------------------------------------------------

    def on_inval(self, packet: Packet) -> None:
        """Transport receive hook for CACHE_INVAL messages (sync, no env
        interaction on the dedup paths)."""
        header = packet.header
        if self._invals.first(packet.payload.seq, header.src,
                              header.request_id):
            self.env.process(self._apply_inval(packet.payload))

    def set_tracer(self, tracer: Optional[Tracer]) -> None:
        """Enable/disable span tracing of fills and invalidations."""
        self.tracer = tracer
        if tracer is not None:
            self._inval_sites = tracer.sites("cache:", "cache",
                                             self.node.name, ("keys",))
            self._fill_site = tracer.site("cache:fill", "cache",
                                          self.node.name, ("va",))

    def _apply_inval(self, msg):
        tracer = self.tracer
        span = (tracer.begin(self._inval_sites[msg.action], len(msg.keys))
                if tracer is not None else None)
        for key in msg.keys:
            yield from self._retire(key, msg.action)
        self.invalidations += len(msg.keys)
        if tracer is not None:
            tracer.end(span)
        self._invals.finish(msg.seq, ResponseBody(status=Status.OK))

    # -- read path ------------------------------------------------------------------------

    def read(self, thread, va: int, size: int):
        """Process-generator: serve a read, from the cache when possible."""
        if not self.cacheable(va, size):
            return (yield from self._bypass_read(thread, va, size))
        key = self._key(thread, va)
        while True:
            line, row = self._meet(key, "read")
            if line is None:
                data = yield from self._miss(thread, key, va, size, row)
            elif row.wait:
                yield line.fill_event
                continue
            else:
                data = yield from self._local_op(thread, key, va, size,
                                                 None, "read")
            if data is not None:
                return data

    def _miss(self, thread, key: tuple, va: int, size: int,
              row: protocol.LineRow):
        protocol.bump(self, row.count)
        line = self._lines[key] = _Line(self.env, row.next)   # placeholder
        tracer = self.tracer
        span = (tracer.begin(self._fill_site, key[2])
                if tracer is not None else None)
        try:
            outcome = yield from self._dir_request(CacheReq(
                "fill", key[1], key[0], keys=(key,),
                drops=self._take_drops()))
            if outcome.body.value.get("owner_local"):
                # Our own node owns this line dirty (a local write raced
                # us): the MN's bytes are stale.  Re-examine locally.
                return None
            # The oracle window opens only now, after directory admission,
            # and covers the bytes asked for, not the whole line fetched.
            token = open_window(thread, False, va, size)
            mn_out = yield from mn_request(
                thread, False, key[2], self.line_bytes, token=token)
            buf = bytearray(mn_out.data)
            offset = va - key[2]
            data = bytes(buf[offset:offset + size])
            if not line.poisoned and self._lines.get(key) is line:
                line.data = buf
                self._apply(key, line, self._row(line, "fill"))
            settle(thread, False, token, data,
                   outcome.retries + mn_out.retries)
            if line.data is not None:
                yield from self._enforce_capacity()
            return data
        finally:
            if line.data is None and self._lines.get(key) is line:
                # The directory may have registered us before the fill
                # fell through — the row's drop notice lets it know we
                # hold nothing.
                self._apply(key, line, self._row(line, "fill_void"))
            line.fill_event.succeed()
            if tracer is not None:
                tracer.end(span)

    def _bypass_read(self, thread, va: int, size: int):
        """Multi-line read: go to the MN, syncing dirty owners first
        (write-back) so the MN holds current bytes."""
        retries = 0
        if self.policy == "back":
            process = thread.process
            sync_out = yield from self._dir_request(CacheReq(
                "sync", process.pid, process.mn, drops=self._take_drops(),
                keys=protocol.line_keys(process.mn, process.pid, va, size,
                               self.line_bytes)))
            retries = sync_out.retries
        return (yield from mn_request(
            thread, False, va, size,
            token=open_window(thread, False, va, size), retries=retries))

    # -- write path -----------------------------------------------------------------------

    def write(self, thread, va: int, data: bytes):
        """Process-generator: serve a write under the active policy."""
        if not self.cacheable(va, len(data)):
            yield from self._bypass_write(thread, va, data)
            return
        key = self._key(thread, va)
        # Never open a write transaction while a local fill for the key is
        # in flight (the ``write`` rows say why).  Residual races are
        # closed by poisoning the placeholder at commit time.
        while True:
            line, row = self._meet(key, "write")
            if not row.wait:
                break
            yield line.fill_event
        if (yield from self._local_op(thread, key, va, len(data), data,
                                      "write")) is not None:
            return                    # owner hit: the directory never knew
        back = self.policy == "back"
        guard = yield from self._open_txn(key[1], key[0], (key,),
                                          want_owner=back)
        try:
            yield from (self._write_back if back else self._write_through)(
                thread, key, va, data, guard.retries)
        finally:
            self.guard_end(guard)

    def _write_through(self, thread, key: tuple, va: int, data: bytes,
                       retries: int):
        # The window stays open across the local line update below: until
        # that lands a concurrent local hit may still legally read the old
        # bytes, so the write must not commit in the oracle at the MN ack.
        token = open_window(thread, True, va, len(data), data)
        try:
            mn_out = yield from mn_request(
                thread, True, va, len(data), data, token)
        except BaseException:
            # The write may have applied without the ack: our local copy
            # can no longer be trusted.
            yield from self._retire(key, "discard")
            raise
        # A fill in flight is poisoned: its MN read raced our write.
        line, row = self._meet(key, "through_acked")
        if row.next is not None and (yield from self._hold(key, line)):
            offset = va - key[2]
            line.data[offset:offset + len(data)] = data
            self._lru.move_to_end(key)
            line.lock.release()
        protocol.bump(self, row.count)
        settle(thread, True, token, retries=retries + mn_out.retries)

    def _local_op(self, thread, key: tuple, va: int, size: int,
                  data: Optional[bytes], event: str, retries: int = 0):
        """Process-generator: serve a read (``data`` None) from, or land
        a write-back write in, the resident line, if ``event``'s row lets
        it — for a write, because we own the line or were just granted it
        and already hold current bytes: zero network round trips.
        Returns the bytes read or written; None when there is no such
        line (any more), and the caller looks again, goes to the
        directory (``write``) or installs one (``back_granted``)."""
        line = self._lines.get(key)
        if line is None or line.data is None \
                or self._row(line, event).next is None \
                or not (yield from self._hold(key, line)):
            return None
        row = self._row(line, event)      # as it is now that we hold it
        if row.next is None:
            line.lock.release()
            return None
        is_write = data is not None
        token = open_window(thread, is_write, va, size, data)
        yield self.env.timeout(self.hit_ns)
        offset = va - key[2]
        if is_write:
            line.data[offset:offset + size] = data
        else:
            data = bytes(line.data[offset:offset + size])
        line.state = row.next
        self._lru.move_to_end(key)
        line.lock.release()
        protocol.bump(self, row.count)
        settle(thread, is_write, token, data, retries)
        return data

    def _write_back(self, thread, key: tuple, va: int, data: bytes,
                    retries: int):
        if (yield from self._local_op(thread, key, va, len(data), data,
                                      "back_granted", retries)) is not None:
            return                    # upgraded in place: we held the bytes
        offset = va - key[2]
        if offset == 0 and len(data) == self.line_bytes:
            buf = bytearray(data)      # full-line write: nothing to fetch
        else:
            # Fetch-on-write: merge into the current line image.  The MN
            # holds current bytes (any previous owner was recalled and
            # flushed by our wbegin).  No window: the write's own opens
            # below, at the local commit.
            mn_out = yield from mn_request(
                thread, False, key[2], self.line_bytes)
            buf = bytearray(mn_out.data)
            buf[offset:offset + len(data)] = data
            retries += mn_out.retries
        token = open_window(thread, True, va, len(data), data)
        yield self.env.timeout(self.hit_ns)
        _, row = self._meet(key, "back_granted")   # poisons a raced fill
        self._apply(key, _Line(self.env, row.next, buf), row)
        settle(thread, True, token, retries=retries)
        yield from self._enforce_capacity()

    # -- guarded bypass (atomics, large writes, frees) --------------------------------------

    def write_guard(self, thread, va: int, size: int):
        """Process-generator: open a write transaction covering
        ``[va, va+size)`` with every cached copy — including our own —
        recalled.  Returns a :class:`_Guard`; pass it to
        :meth:`guard_end` (in a finally block)."""
        process = thread.process
        return (yield from self._open_txn(
            process.pid, process.mn, include_self=True,
            keys=protocol.line_keys(process.mn, process.pid, va, size,
                                    self.line_bytes)))

    def _bypass_write(self, thread, va: int, data: bytes):
        guard = yield from self.write_guard(thread, va, len(data))
        try:
            yield from mn_request(
                thread, True, va, len(data), data,
                open_window(thread, True, va, len(data), data), guard.retries)
        finally:
            self.guard_end(guard)

    # -- departure -----------------------------------------------------------------------------

    def shutdown(self):
        """Process-generator: CN departure.  Detach from the node (its
        ops take the uncached path from here on), flush and drop every
        line, then tell the directory this CN departed.  The cache keeps
        answering coherence messages after."""
        self.node.cache = None
        for key in list(self._lines):
            yield from self._retire(key, "evict")
        try:
            yield from self._dir_request(CacheReq(
                "depart", 0, "", drops=self._take_drops()))
        except RequestFailed:
            pass   # stale entries resolve as trivially-acked recalls
