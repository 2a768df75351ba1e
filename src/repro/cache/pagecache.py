"""CN-local hot-page cache: line store, interception, and coherence.

One :class:`PageCache` per ComputeNode.  ``ClioThread`` data ops route
through :meth:`read` / :meth:`write` on a cluster built with the caching
layer; everything that fits inside one cache line is served locally
when possible, with the line state machine below; larger accesses,
atomics, and frees take guarded bypass paths that keep the cached copies
coherent.

Line states (per ``(mn, pid, line_va)`` key):

* ``filling``  — placeholder while a fill is in flight; never served,
  never evicted; an invalidation or a local write *poisons* it so the
  arriving data is served once but not installed.
* ``shared``   — clean read-only copy; any number of CNs may hold one.
* ``modified`` — exclusive dirty copy (write-back only): writes commit
  locally at DRAM speed with **zero network round trips**, the whole
  point of the cache.

Coherence actions arrive as CACHE_INVAL messages from the directory:
``recall`` = flush-if-dirty then drop, ``downgrade`` = flush then keep
a shared clean copy.  Flushes retry unboundedly across board crashes
(their bytes are committed data the MN must eventually hold); a typed
rejection (region freed) abandons the bytes and counts
``flush_failures``.

Every MN data access is the uncached client's own ``mn_request`` (via
``checked_access`` when nothing happens inside the window) and every op
settles through its ``settle``, so the shadow oracle sees
cached ops exactly like direct ones, with one deliberate rule: *flush*
writes bypass the oracle — they re-materialize bytes whose write was
already recorded as committed, which is idempotent.  Hit tokens open at serve time (a ~300ns window), and miss
tokens open only after directory admission, so a fill that waited out a
board crash behind a write transaction cannot trip the oracle's
zero-retry epoch-fence rule.
"""

from __future__ import annotations

import itertools
from collections import OrderedDict, deque
from dataclasses import dataclass
from typing import Optional

from repro.cache.directory import DIRECTORY_NODE, CacheReq
from repro.clib.client import (RemoteAccessError, check_reply,
                               checked_access, mn_request, open_window,
                               settle)
from repro.core.cboard import ResponseBody
from repro.core.pipeline import Status
from repro.net.packet import ClioHeader, Packet, PacketType
from repro.telemetry.metrics import MetricsRegistry, StatsView
from repro.telemetry.spans import Tracer
from repro.transport.clib_transport import RequestFailed

FILLING = "filling"
SHARED = "shared"
MODIFIED = "modified"

#: Sentinel: the fill path asking the read loop to re-examine the line.
_RETRY = object()


class _Line:
    """One cached line plus its local FIFO lock."""

    __slots__ = ("key", "data", "state", "dirty", "fill_event", "poisoned",
                 "locked", "waiters")

    def __init__(self, key: tuple, fill_event=None):
        self.key = key
        self.data: Optional[bytearray] = None
        self.state = FILLING
        self.dirty = False
        self.fill_event = fill_event
        self.poisoned = False
        self.locked = False
        self.waiters: deque = deque()


@dataclass(slots=True)
class _Guard:
    """An open range write-transaction (atomics, bypass writes, frees)."""

    txn_id: int
    pid: int
    mn: str
    retries: int


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
        self._active_invals: dict[int, int] = {}   # seq -> latest request_id
        self._inval_done: OrderedDict = OrderedDict()
        # Counters.
        self.hits = 0
        self.misses = 0
        self.fills = 0
        self.evictions = 0
        self.invalidations = 0
        self.writebacks = 0
        self.write_hits = 0
        self.write_fills = 0
        self.write_throughs = 0
        self.flush_retries = 0
        self.flush_failures = 0
        self.tracer: Optional[Tracer] = None
        node.transport.cache_listener = self.on_inval
        metrics = (registry if registry is not None
                   else MetricsRegistry()).scope(f"cache.{node.name}")
        self._stats = StatsView({
            "hits": metrics.counter("hits", fn=lambda: self.hits),
            "misses": metrics.counter("misses", fn=lambda: self.misses),
            "fills": metrics.counter(
                "fills", "lines installed from the MN", fn=lambda: self.fills),
            "evictions": metrics.counter(
                "evictions", fn=lambda: self.evictions),
            "invalidations": metrics.counter(
                "invalidations", "line recalls/downgrades applied",
                fn=lambda: self.invalidations),
            "writebacks": metrics.counter(
                "writebacks", "dirty lines flushed to the MN",
                fn=lambda: self.writebacks),
            "write_hits": metrics.counter(
                "write_hits", "writes committed locally (owner hit)",
                fn=lambda: self.write_hits),
            "write_fills": metrics.counter(
                "write_fills", "ownership grants that installed a line",
                fn=lambda: self.write_fills),
            "write_throughs": metrics.counter(
                "write_throughs", fn=lambda: self.write_throughs),
            "flush_retries": metrics.counter(
                "flush_retries", fn=lambda: self.flush_retries),
            "flush_failures": metrics.counter(
                "flush_failures", "dirty lines abandoned (region gone)",
                fn=lambda: self.flush_failures),
        })
        metrics.gauge("hit_rate", "hits / (hits + misses)",
                      fn=lambda: self.hits / max(1, self.hits + self.misses))
        metrics.gauge("lines", "resident lines",
                      fn=lambda: len(self._lru))

    def stats(self) -> dict:
        return self._stats.snapshot()

    # -- geometry ------------------------------------------------------------------

    def cacheable(self, va: int, size: int) -> bool:
        """True when the access fits within a single cache line."""
        return 0 < size and (va % self.line_bytes) + size <= self.line_bytes

    def _key(self, thread, va: int) -> tuple:
        process = thread.process
        return (process.mn, process.pid, va - (va % self.line_bytes))

    def _range_keys(self, mn: str, pid: int, va: int, size: int) -> tuple:
        first = va - (va % self.line_bytes)
        return tuple((mn, pid, line_va)
                     for line_va in range(first, va + size, self.line_bytes))

    # -- allocation tracking (for rfree invalidation) -------------------------------

    def note_alloc(self, mn: str, pid: int, va: int, size: int) -> None:
        self._allocs[(mn, pid, va)] = size

    def allocation_size(self, mn: str, pid: int, va: int) -> int:
        return self._allocs.get((mn, pid, va), 0)

    def forget_alloc(self, mn: str, pid: int, va: int) -> None:
        self._allocs.pop((mn, pid, va), None)

    # -- local line locks (FIFO handoff) -------------------------------------------

    def _lock_line(self, line: _Line):
        if not line.locked:
            line.locked = True
            return
        waiter = self.env.event()
        line.waiters.append(waiter)
        yield waiter                  # woken holding the lock

    def _unlock_line(self, line: _Line) -> None:
        if line.waiters:
            line.waiters.popleft().succeed()
        else:
            line.locked = False

    # -- residency bookkeeping -------------------------------------------------------

    def _install(self, key: tuple, line: _Line) -> None:
        self._lines[key] = line
        self._lru[key] = None
        self._lru.move_to_end(key)

    def _touch(self, key: tuple) -> None:
        if key in self._lru:
            self._lru.move_to_end(key)

    def _remove_line(self, key: tuple, line: _Line,
                     note_drop: bool = True) -> None:
        """Drop a resident line.  Caller holds the line lock and has
        verified identity."""
        del self._lines[key]
        self._lru.pop(key, None)
        if note_drop:
            self._pending_drops.add(key)

    def _take_drops(self) -> tuple:
        if not self._pending_drops:
            return ()
        drops = tuple(sorted(self._pending_drops))
        self._pending_drops.clear()
        return drops

    def _pick_victim(self) -> Optional[tuple]:
        for key in self._lru:
            line = self._lines.get(key)
            if line is not None and line.state != FILLING \
                    and not line.locked:
                return key
        return None

    def _enforce_capacity(self):
        while len(self._lru) > self.capacity_lines:
            victim = self._pick_victim()
            if victim is None:
                return
            yield from self._evict(victim)

    def _evict(self, key: tuple):
        line = self._lines.get(key)
        if line is None or line.state == FILLING:
            return
        yield from self._lock_line(line)
        try:
            if self._lines.get(key) is not line or line.state == FILLING:
                return
            if line.dirty:
                yield from self._flush_line(key, line)
            self._remove_line(key, line, note_drop=True)
            self.evictions += 1
        finally:
            self._unlock_line(line)

    # -- directory client -------------------------------------------------------------

    def _dir_request(self, req: CacheReq):
        outcome = yield from self.transport.request(
            DIRECTORY_NODE, PacketType.CACHE_REQ, pid=req.pid, payload=req)
        return outcome

    def _spawn_wend(self, txn_id: int, pid: int, mn: str) -> None:
        """Release a directory write transaction in the background.

        The wend must eventually land or the directory's key locks stay
        held forever, so it retries past transport exhaustion.
        """

        def runner():
            backoff = self.params.clib.timeout_ns
            while True:
                try:
                    yield from self._dir_request(
                        CacheReq("wend", pid, mn, txn_id=txn_id))
                    return
                except RequestFailed:
                    yield self.env.timeout(backoff)
                    backoff = min(backoff * 2,
                                  self.params.clib.slow_timeout_ns)

        self.env.process(runner())

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
        backoff = self.cacheparams.flush_retry_ns
        while True:
            try:
                outcome = yield from self.transport.request(
                    mn, PacketType.WRITE, pid=pid, va=line_va,
                    size=len(payload), data=payload)
            except RequestFailed:
                self.flush_retries += 1
                yield self.env.timeout(backoff)
                backoff = min(backoff * 2, self.params.clib.slow_timeout_ns)
                continue
            line.dirty = False
            try:
                check_reply(outcome, "flush({:#x})", line_va)
            except RemoteAccessError:
                self.flush_failures += 1
                return False
            self.writebacks += 1
            return True

    # -- invalidation (directory -> CN) ---------------------------------------------------

    def on_inval(self, packet: Packet) -> None:
        """Transport receive hook for CACHE_INVAL messages (sync, no env
        interaction on the dedup paths)."""
        header = packet.header
        msg = packet.payload
        if msg.seq in self._inval_done:
            self._ack_inval(header.src, header.request_id)
            return
        if msg.seq in self._active_invals:
            # Retransmission of one we're already applying: remember the
            # newest attempt ID so the eventual ack matches it.
            self._active_invals[msg.seq] = header.request_id
            return
        self._active_invals[msg.seq] = header.request_id
        self.env.process(self._apply_inval(msg))

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
            yield from self._inval_key(key, msg.action)
        self.invalidations += len(msg.keys)
        self._inval_done[msg.seq] = None
        while len(self._inval_done) > 256:
            self._inval_done.popitem(last=False)
        reply_id = self._active_invals.pop(msg.seq)
        if tracer is not None:
            tracer.end(span)
        self._ack_inval(DIRECTORY_NODE, reply_id)

    def _inval_key(self, key: tuple, action: str):
        line = self._lines.get(key)
        if line is None:
            return                    # already evicted: trivial ack
        if line.state == FILLING:
            line.poisoned = True      # the arriving fill must not install
            return
        yield from self._lock_line(line)
        try:
            if self._lines.get(key) is not line or line.state == FILLING:
                return
            if line.dirty:
                yield from self._flush_line(key, line)
            if action == "recall":
                # The directory initiated this drop and updates its own
                # entry — no drop notice needed.
                self._remove_line(key, line, note_drop=False)
            else:
                line.state = SHARED
                line.dirty = False
        finally:
            self._unlock_line(line)

    def _ack_inval(self, dst: str, request_id: int) -> None:
        header = ClioHeader(
            src=self.node.name, dst=dst, request_id=request_id,
            packet_type=PacketType.RESPONSE)
        self.transport.topology.send(Packet(
            header=header, payload=ResponseBody(status=Status.OK),
            wire_bytes=self.params.network.header_bytes,
            sent_at=self.env.now))

    # -- read path ------------------------------------------------------------------------

    def read(self, thread, va: int, size: int):
        """Process-generator: serve a read, from the cache when possible."""
        if not self.cacheable(va, size):
            data = yield from self._bypass_read(thread, va, size)
            return data
        key = self._key(thread, va)
        while True:
            line = self._lines.get(key)
            if line is None:
                result = yield from self._miss(thread, key, va, size)
                if result is not _RETRY:
                    return result
                continue
            if line.state == FILLING:
                yield line.fill_event
                continue
            yield from self._lock_line(line)
            if self._lines.get(key) is not line or line.state == FILLING:
                self._unlock_line(line)
                continue
            token = open_window(thread, False, va, size)
            yield self.env.timeout(self.hit_ns)
            offset = va - key[2]
            data = bytes(line.data[offset:offset + size])
            self._touch(key)
            self._unlock_line(line)
            self.hits += 1
            settle(thread, False, token, data)
            return data

    def _miss(self, thread, key: tuple, va: int, size: int):
        self.misses += 1
        line = _Line(key, fill_event=self.env.event())
        self._lines[key] = line       # FILLING placeholder
        installed = False
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
                return _RETRY
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
                line.state = SHARED
                self._install(key, line)
                installed = True
                self.fills += 1
            settle(thread, False, token, data,
                   outcome.retries + mn_out.retries)
            if installed:
                yield from self._enforce_capacity()
            return data
        finally:
            if not installed and self._lines.get(key) is line:
                del self._lines[key]
                # The directory may have registered us before the fill
                # fell through — let it know we hold nothing.
                self._pending_drops.add(key)
            if line.fill_event is not None and not line.fill_event.triggered:
                line.fill_event.succeed()
            if tracer is not None:
                tracer.end(span)

    def _bypass_read(self, thread, va: int, size: int):
        """Multi-line read: go to the MN, syncing dirty owners first
        (write-back) so the MN holds current bytes."""
        retries = 0
        if self.policy == "back":
            keys = self._range_keys(thread.process.mn, thread.process.pid,
                                    va, size)
            sync_out = yield from self._dir_request(CacheReq(
                "sync", thread.process.pid, thread.process.mn, keys=keys,
                drops=self._take_drops()))
            retries = sync_out.retries
        return (yield from checked_access(thread, False, va, size,
                                          retries=retries))

    # -- write path -----------------------------------------------------------------------

    def write(self, thread, va: int, data: bytes):
        """Process-generator: serve a write under the active policy."""
        if not self.cacheable(va, len(data)):
            yield from self._bypass_write(thread, va, data)
            return
        key = self._key(thread, va)
        # Never open a write transaction while a local fill for the key is
        # in flight: its MN read could race our MN write (write-through)
        # or our dirty ownership (write-back).  Residual races are closed
        # by poisoning the placeholder at commit time.
        while True:
            line = self._lines.get(key)
            if line is None or line.state != FILLING:
                break
            yield line.fill_event
        if self.policy == "through":
            yield from self._write_through(thread, key, va, data)
        else:
            yield from self._write_back(thread, key, va, data)

    def _write_through(self, thread, key: tuple, va: int, data: bytes):
        txn_id = next(self._txn_ids)
        try:
            dir_out = yield from self._dir_request(CacheReq(
                "wbegin", key[1], key[0], keys=(key,), txn_id=txn_id,
                drops=self._take_drops()))
        except BaseException:
            # The directory may have executed the wbegin and lost the
            # response: always send the matching wend.
            self._spawn_wend(txn_id, key[1], key[0])
            raise
        # The window stays open across the local line update below: until
        # that lands a concurrent local hit may still legally read the old
        # bytes, so the write must not commit in the oracle at the MN ack.
        token = open_window(thread, True, va, len(data), data)
        try:
            try:
                mn_out = yield from mn_request(
                    thread, True, va, len(data), data, token)
            except BaseException:
                # The write may have applied without the ack: our local
                # copy can no longer be trusted.
                yield from self._discard_local(key)
                raise
            line = self._lines.get(key)
            if line is not None:
                if line.state == FILLING:
                    line.poisoned = True   # its MN read raced our write
                else:
                    yield from self._lock_line(line)
                    if self._lines.get(key) is line and line.state == SHARED:
                        offset = va - key[2]
                        line.data[offset:offset + len(data)] = data
                        self._touch(key)
                    self._unlock_line(line)
            self.write_throughs += 1
            settle(thread, True, token,
                   retries=dir_out.retries + mn_out.retries)
        finally:
            self._spawn_wend(txn_id, key[1], key[0])

    def _write_back(self, thread, key: tuple, va: int, data: bytes):
        line = self._lines.get(key)
        if line is not None and line.state == MODIFIED:
            yield from self._lock_line(line)
            if self._lines.get(key) is line and line.state == MODIFIED:
                # Owner hit: commit locally, zero network round trips.
                token = open_window(thread, True, va, len(data), data)
                yield self.env.timeout(self.hit_ns)
                offset = va - key[2]
                line.data[offset:offset + len(data)] = data
                line.dirty = True
                self._touch(key)
                self._unlock_line(line)
                self.write_hits += 1
                settle(thread, True, token)
                return
            self._unlock_line(line)
        txn_id = next(self._txn_ids)
        try:
            dir_out = yield from self._dir_request(CacheReq(
                "wbegin", key[1], key[0], keys=(key,), txn_id=txn_id,
                want_owner=True, drops=self._take_drops()))
        except BaseException:
            self._spawn_wend(txn_id, key[1], key[0])
            raise
        try:
            yield from self._write_back_commit(thread, key, va, data,
                                               dir_out.retries)
        finally:
            self._spawn_wend(txn_id, key[1], key[0])

    def _write_back_commit(self, thread, key: tuple, va: int, data: bytes,
                           dir_retries: int):
        line = self._lines.get(key)
        if line is not None and line.state in (SHARED, MODIFIED):
            yield from self._lock_line(line)
            if self._lines.get(key) is line \
                    and line.state in (SHARED, MODIFIED):
                # Upgrade in place: we already hold current bytes.
                token = open_window(thread, True, va, len(data), data)
                yield self.env.timeout(self.hit_ns)
                offset = va - key[2]
                line.data[offset:offset + len(data)] = data
                line.state = MODIFIED
                line.dirty = True
                self._touch(key)
                self._unlock_line(line)
                self.write_hits += 1
                settle(thread, True, token, retries=dir_retries)
                return
            self._unlock_line(line)
        offset = va - key[2]
        if offset == 0 and len(data) == self.line_bytes:
            buf = bytearray(data)      # full-line write: nothing to fetch
            retries = dir_retries
        else:
            # Fetch-on-write: merge into the current line image.  The MN
            # holds current bytes (any previous owner was recalled and
            # flushed by our wbegin).  No window: the write's own opens
            # below, at the local commit.
            mn_out = yield from mn_request(
                thread, False, key[2], self.line_bytes)
            buf = bytearray(mn_out.data)
            buf[offset:offset + len(data)] = data
            retries = dir_retries + mn_out.retries
        token = open_window(thread, True, va, len(data), data)
        yield self.env.timeout(self.hit_ns)
        existing = self._lines.get(key)
        if existing is not None and existing.state == FILLING:
            existing.poisoned = True   # a raced local fill must not install
        new_line = _Line(key)
        new_line.data = buf
        new_line.state = MODIFIED
        new_line.dirty = True
        self._install(key, new_line)
        self.write_fills += 1
        settle(thread, True, token, retries=retries)
        yield from self._enforce_capacity()

    def _discard_local(self, key: tuple):
        line = self._lines.get(key)
        if line is None:
            return
        if line.state == FILLING:
            line.poisoned = True
            return
        yield from self._lock_line(line)
        try:
            if self._lines.get(key) is not line or line.state == FILLING:
                return
            if line.dirty:
                yield from self._flush_line(key, line)
            self._remove_line(key, line, note_drop=True)
        finally:
            self._unlock_line(line)

    # -- guarded bypass (atomics, large writes, frees) --------------------------------------

    def write_guard(self, thread, va: int, size: int):
        """Process-generator: open a write transaction covering
        ``[va, va+size)`` with every cached copy — including our own —
        recalled.  Returns a :class:`_Guard`; pass it to
        :meth:`guard_end` (in a finally block)."""
        mn, pid = thread.process.mn, thread.process.pid
        keys = self._range_keys(mn, pid, va, size)
        txn_id = next(self._txn_ids)
        try:
            outcome = yield from self._dir_request(CacheReq(
                "wbegin", pid, mn, keys=keys, txn_id=txn_id,
                include_self=True, drops=self._take_drops()))
        except BaseException:
            self._spawn_wend(txn_id, pid, mn)
            raise
        return _Guard(txn_id=txn_id, pid=pid, mn=mn, retries=outcome.retries)

    def guard_end(self, guard: _Guard) -> None:
        self._spawn_wend(guard.txn_id, guard.pid, guard.mn)

    def _bypass_write(self, thread, va: int, data: bytes):
        guard = yield from self.write_guard(thread, va, len(data))
        try:
            yield from checked_access(thread, True, va, len(data), data,
                                      retries=guard.retries)
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
            line = self._lines.get(key)
            if line is None:
                continue
            if line.state == FILLING:
                line.poisoned = True
                continue
            yield from self._evict(key)
        try:
            yield from self._dir_request(CacheReq(
                "depart", 0, "", drops=self._take_drops()))
        except RequestFailed:
            pass   # stale entries resolve as trivially-acked recalls
