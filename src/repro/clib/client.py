"""Compute-node objects: ComputeNode, ClioProcess, ClioThread.

A :class:`ComputeNode` is a regular server with one Ethernet NIC and one
CLib transport endpoint.  A :class:`ClioProcess` owns a remote virtual
address space (RAS) identified by a global PID assigned at start, bound
to one MN.  A :class:`ClioThread` carries the per-thread ordering state:
synchronous calls block the thread; asynchronous calls return an
:class:`AsyncHandle` after dependency admission.
"""

from __future__ import annotations

import itertools
from typing import Optional, Sequence

from repro.clib.handles import AsyncHandle, Completion
from repro.core.addr import Permission
from repro.core.pipeline import Status
from repro.core.sync import AtomicOp, AtomicResult
from repro.net.packet import PacketType
from repro.params import ClioParams
from repro.sim import Environment
from repro.transport.clib_transport import Transport
from repro.transport.ordering import DependencyTracker

#: Global PID source — "a unique global PID across all CNs" (section 3.1).
_pids = itertools.count(1)


class RemoteAccessError(Exception):
    """An MN rejected the access (bad VA, permission, or out of memory)."""

    def __init__(self, status: Status, message: str):
        super().__init__(f"{message}: {status.value}")
        self.status = status


def check_reply(outcome, what: str, *args):
    """Raise :class:`RemoteAccessError` unless the MN answered OK.

    The one place a reply becomes a typed failure: a response without a
    body reads as a bad VA.  ``what.format(*args)`` names the op in the
    error and is only built on the failure path.
    """
    body = outcome.body
    status = body.status if body is not None else Status.INVALID_VA
    if status is not Status.OK:
        raise RemoteAccessError(status, what.format(*args))


def open_window(thread, is_write: bool, va: int, size: int,
                data: Optional[bytes] = None):
    """Open the shadow oracle's window on one data op; returns its token
    (None while verification is off)."""
    verifier = thread.process.node.verifier
    if verifier is None:
        return None
    if is_write:
        return verifier.write_begin(thread, va, data)
    return verifier.read_begin(thread, va, size)


def settle(thread, is_write: bool, token, data: Optional[bytes] = None,
           retries: int = 0, error: Optional[BaseException] = None,
           completion=None, done=None) -> None:
    """Settle one data op, the same way on every route.

    Closes the op's oracle window (``token``) with the verdict — a read
    is checked against the shadow, a write commits, and a failed or
    rejected write stays acceptable as a "ghost": it may have applied at
    the MN even though the client saw an error (a crash can eat the ack
    after the data landed).  Frame riders also get their handle's
    ``completion`` fulfilled and their tracker slot ``done`` released.
    """
    verifier = thread.process.node.verifier
    if token is not None and verifier is not None:
        if error is not None:
            if is_write:
                verifier.write_failed(token)
            else:
                verifier.read_failed(token)
        elif is_write:
            verifier.write_acked(token, retries)
        else:
            verifier.read_checked(token, data, retries)
    if completion is not None:
        if error is None:
            completion.succeed(data)
        else:
            completion.fail(error)
    if done is not None and not done.triggered:
        done.succeed()


def mn_request(thread, is_write: bool, va: int, size: int,
               data: Optional[bytes] = None, token=None,
               retries: Optional[int] = None):
    """Process-generator: one checked MN data request, in one frame.

    Issues the request and turns a rejection into
    :class:`RemoteAccessError`; a failure fails the caller's oracle
    window ``token`` before propagating.  With ``retries`` None, success
    returns the reply outcome (data and retries) and leaves the window to
    the caller's own :func:`settle` -- the cache has a line to install or
    update inside it first.  Otherwise the request is the whole access:
    its window settles with ``retries`` (what the caller already spent,
    e.g. at the cache directory) plus the request's own, and the bytes
    read come back (None for a write).
    """
    process = thread.process
    try:
        outcome = yield from process.node.transport.request(
            process.mn, PacketType.WRITE if is_write else PacketType.READ,
            pid=process.pid, va=va, size=size, data=data)
        body = outcome.body
        if body is None or body.status is not Status.OK:
            check_reply(outcome, "r{}({:#x}, {})",
                        "write" if is_write else "read", va, size)
    except BaseException as exc:
        if token is not None:
            settle(thread, is_write, token, error=exc)
        raise
    if retries is None:
        return outcome
    if token is not None:
        settle(thread, is_write, token, outcome.data,
               retries + outcome.retries)
    return outcome.data


class ComputeNode:
    """A regular server attached to the ToR switch, running CLib."""

    def __init__(self, env: Environment, name: str, topology,
                 params: ClioParams, default_page_size: Optional[int] = None,
                 registry=None):
        self.env = env
        self.name = name
        self.params = params
        self.default_page_size = (params.cboard.default_page_size
                                  if default_page_size is None
                                  else default_page_size)
        self.transport = Transport(env, name, topology, params,
                                   registry=registry)
        # Runtime correctness checking (repro.verify); None = disabled,
        # and every hook below sits behind a single `is not None` check.
        self.verifier = None
        # Hot-page cache (repro.cache); None = no caching layer (or this
        # CN departed it), and data ops take the exact pre-cache path.
        self.cache = None

    def process(self, mn: str, page_size: Optional[int] = None,
                pid: Optional[int] = None) -> "ClioProcess":
        """Start an application process with a fresh RAS on MN ``mn``.

        ``page_size`` must match the target MN's configured page size —
        CLib tracks dependencies and splits requests at that granularity.
        ``pid`` pins the global PID explicitly; PIDs feed the page-table
        hash, so deterministic harnesses (chaos scenarios, golden-run
        regression tests) pin them instead of drawing from the shared
        counter, which other tests may have advanced.
        """
        return ClioProcess(self, mn, next(_pids) if pid is None else pid,
                           self.default_page_size if page_size is None
                           else page_size)


class ClioProcess:
    """One application process: a PID plus its RAS on a single MN."""

    def __init__(self, node: ComputeNode, mn: str, pid: int, page_size: int):
        from repro.core.addr import PageSpec
        self.node = node
        self.mn = mn
        self.pid = pid
        self.page_spec = PageSpec(page_size)
        self._thread_count = 0

    def thread(self, ordering_granularity: str = "page") -> "ClioThread":
        """New thread; ``ordering_granularity`` is "page" (paper default)
        or "byte" (exact ranges — no false dependencies, more metadata)."""
        return ClioThread(self, ordering_granularity=ordering_granularity)


class ClioThread:
    """Per-thread API surface with intra-thread ordering enforcement."""

    def __init__(self, process: ClioProcess,
                 ordering_granularity: str = "page"):
        self.process = process
        self.env = process.node.env
        self._transport = process.node.transport
        self._tracker = DependencyTracker(self.env, process.page_spec,
                                          granularity=ordering_granularity)
        self.ops_issued = 0
        # Adaptive request batching (repro.clib.batch): None = off (default);
        # enable_batching installs a ThreadBatcher that coalesces small
        # async data ops into multi-op frames.
        self._batcher = None
        process._thread_count += 1
        #: Stable identity for verification histories (who invoked an op).
        self.label = (f"{process.node.name}/p{process.pid}"
                      f"/t{process._thread_count}")

    # -- internals -----------------------------------------------------------------

    @property
    def tracker(self) -> DependencyTracker:
        return self._tracker

    @property
    def batcher(self):
        """The thread's ThreadBatcher, or None when batching is off."""
        return self._batcher

    # -- request batching (repro.clib.batch, opt-in) ---------------------------------------

    def enable_batching(self, max_ops: Optional[int] = None,
                        window_ns: Optional[int] = None):
        """Opt this thread into adaptive request batching.

        Async data ops (``rread_async``/``rwrite_async``) issued within
        ``window_ns`` of each other coalesce into one multi-op frame of
        up to ``max_ops`` sub-ops (defaults from
        :class:`~repro.params.CLibParams`).  Returns the
        :class:`~repro.clib.batch.ThreadBatcher` handle; idempotent.
        Synchronous ops and ops too large for a frame are unaffected.
        """
        if self._batcher is None:
            from repro.clib.batch import ThreadBatcher
            self._batcher = ThreadBatcher(self, max_ops=max_ops,
                                          window_ns=window_ns)
        return self._batcher

    def disable_batching(self) -> None:
        """Flush anything pending and return to per-op issue."""
        if self._batcher is not None:
            self._batcher.flush()
            self._batcher = None

    def _flush_batches(self) -> None:
        """Push pending batched ops onto the wire before a drain point."""
        if self._batcher is not None:
            self._batcher.flush()

    # -- metadata (slow path) ---------------------------------------------------------

    def ralloc(self, size: int,
               permission: Permission = Permission.READ_WRITE,
               fixed_va: Optional[int] = None):
        """Process-generator: allocate ``size`` bytes in the RAS, return VA."""
        self.ops_issued += 1
        process = self.process
        outcome = yield from self._transport.request(
            process.mn, PacketType.ALLOC, pid=process.pid,
            payload=(size, permission, fixed_va))
        check_reply(outcome, "ralloc({})", size)
        grant = outcome.body.value
        verifier = process.node.verifier
        if verifier is not None:
            verifier.alloc_done(self, grant.va, grant.size)
        cache = process.node.cache
        if cache is not None:
            cache.note_alloc(process.mn, process.pid, grant.va, grant.size)
        return grant.va

    def ralloc_async(self, size: int,
                     permission: Permission = Permission.READ_WRITE):
        """Process-generator: issue a non-blocking ralloc, return a handle.

        The handle's result is the allocated VA.  A fresh allocation can
        conflict with nothing in flight, so issuing never blocks: the
        handle simply runs :meth:`ralloc` in the background.
        """
        process = self.env.process(self.ralloc(size, permission))
        return AsyncHandle(self.env, process, "alloc")
        # Unreachable yield: keeps this a generator like every other
        # async API, so call sites uniformly use `yield from`.
        yield  # pragma: no cover

    def _free(self, va: int):
        """Process-generator: the one body behind rfree/rfree_async.

        The caller has already ordered the free against this thread's
        in-flight accesses (sync: drained them; async: registered the
        free as a write over the freed range).
        """
        process = self.process
        page_size = process.page_spec.page_size
        cache = process.node.cache
        guard = None
        try:
            if cache is not None:
                # Recall every cached line of the allocation *before* the
                # MN frees it, holding the directory locks across the free
                # so no new fill can resurrect a dead line.  When the
                # allocation size wasn't observed (region handed over out
                # of band), the recall happens after the free using the
                # freed page count.
                known = cache.allocation_size(process.mn, process.pid, va)
                if known:
                    guard = yield from cache.write_guard(self, va, known)
            outcome = yield from self._transport.request(
                process.mn, PacketType.FREE, pid=process.pid, va=va)
            check_reply(outcome, "rfree({:#x})", va)
            freed_pages = outcome.body.value.freed_pages
            if cache is not None:
                cache.forget_alloc(process.mn, process.pid, va)
                if guard is None and freed_pages:
                    late = yield from cache.write_guard(
                        self, va, freed_pages * page_size)
                    cache.guard_end(late)
            verifier = process.node.verifier
            if verifier is not None:
                verifier.free_done(self, va, freed_pages * page_size)
            return freed_pages
        finally:
            if guard is not None:
                cache.guard_end(guard)

    def rfree(self, va: int):
        """Process-generator: free an allocation.

        Metadata/data consistency (section 3.1): conflicting operations
        execute synchronously in program order, so the free first drains
        any in-flight access of this thread.
        """
        self.ops_issued += 1
        self._flush_batches()
        yield from self._tracker.drain()
        return (yield from self._free(va))

    def rfree_async(self, va: int, size_hint: int = 0):
        """Process-generator: issue a non-blocking rfree, return a handle.

        Consistency with data operations (section 3.1): the free is
        registered as a *write* over the freed range, so any later access
        of this thread to that range blocks until the free completes (and
        then fails with INVALID_VA, as it must).  ``size_hint`` bounds the
        tracked range; when 0 one page is assumed.
        """
        self.ops_issued += 1
        span = max(size_hint, 1)
        yield from self._tracker.wait_for_conflicts(va, span, is_write=True)
        done = self._tracker.register(va, span, is_write=True)
        process = self.env.process(self._async_op(self._free(va), done))
        return AsyncHandle(self.env, process, "free")

    # -- data path: admit -> route -> checked access -> settle ---------------------------

    def _route(self, is_write: bool, va: int, size: int,
               data: Optional[bytes], token=None):
        """The generator that serves one admitted data op.

        Route selection, sync and async alike: the CN cache when caching
        is on (it opens the op's oracle windows itself), else one direct
        :func:`mn_request` that settles the op's window -- opened here
        unless the caller holds ``token`` since admission.  A plain
        function, so a sync op that ``yield from``s the result pays no
        extra generator frame.
        """
        node = self.process.node
        cache = node.cache
        if cache is not None:
            if is_write:
                return cache.write(self, va, data)
            return cache.read(self, va, size)
        if token is None and node.verifier is not None:
            token = open_window(self, is_write, va, size, data)
        return mn_request(self, is_write, va, size, data, token, 0)

    def rread(self, va: int, size: int):
        """Process-generator: blocking read; returns the bytes."""
        if size <= 0:
            raise ValueError("rread needs a positive size")
        self.ops_issued += 1
        yield from self._tracker.wait_for_conflicts(va, size, is_write=False)
        return (yield from self._route(False, va, size, None))

    def rwrite(self, va: int, data: bytes):
        """Process-generator: blocking write."""
        if not data:
            raise ValueError("rwrite needs a non-empty payload")
        self.ops_issued += 1
        yield from self._tracker.wait_for_conflicts(va, len(data), is_write=True)
        yield from self._route(True, va, len(data), bytes(data))

    def _issue_async(self, is_write: bool, va: int, size: int,
                     data: Optional[bytes] = None, frames=None):
        """Process-generator: admit one async data op, route it, return
        its :class:`AsyncHandle`.

        Admission blocks only while a WAR/RAW/WAW conflict with an
        in-flight request of this thread drains (section 4.5), then takes
        a tracker slot.  Routes, first match wins: caching on -> the
        cache; ``frames`` (the thread's batcher, or a vector's chunker)
        admits the op's shape -> it rides a multi-op frame; else one
        direct checked access.  Direct and frame ops open their oracle
        window here, at admission; cached ops leave that to the cache.
        """
        self.ops_issued += 1
        tracker = self._tracker
        yield from tracker.wait_for_conflicts(va, size, is_write=is_write)
        done = tracker.register(va, size, is_write=is_write)
        kind = "write" if is_write else "read"
        cache = self.process.node.cache
        token = None
        if cache is None:
            token = open_window(self, is_write, va, size, data)
            if frames is not None and frames.admits(is_write, size):
                return AsyncHandle(
                    self.env,
                    frames.submit(is_write, va, size, data, done, token),
                    kind)
        process = self.env.process(
            self._async_op(self._route(is_write, va, size, data, token), done))
        return AsyncHandle(self.env, process, kind)

    def _async_op(self, op, done):
        """Process body of an async op that rides no frame (a routed data
        op, or a free): run its generator, then release the tracker slot
        however it ended."""
        try:
            return (yield from op)
        finally:
            if not done.triggered:
                done.succeed()

    def rread_async(self, va: int, size: int):
        """Process-generator: issue a non-blocking read, return a handle."""
        if size <= 0:
            raise ValueError("rread needs a positive size")
        return (yield from self._issue_async(False, va, size,
                                             frames=self._batcher))

    def rwrite_async(self, va: int, data: bytes):
        """Process-generator: issue a non-blocking write, return a handle."""
        if not data:
            raise ValueError("rwrite needs a non-empty payload")
        return (yield from self._issue_async(True, va, len(data), bytes(data),
                                             frames=self._batcher))

    # -- vector data path (scatter/gather) ---------------------------------------------

    def rreadv_async(self, ops: Sequence[tuple[int, int]]):
        """Process-generator: scatter-read ``[(va, size), ...]``.

        The list is chunked into multi-op frames (one header + window
        slot per frame instead of per op) that are all in flight
        concurrently on return.  Returns one handle per op, in order;
        each handle's result is that op's bytes.
        """
        if not ops:
            raise ValueError("rreadv needs at least one (va, size) op")
        if any(size <= 0 for _va, size in ops):
            raise ValueError("rreadv needs positive sizes")
        from repro.clib.batch import issue_vector
        return (yield from issue_vector(
            self, False, [(va, size, None) for va, size in ops]))

    def rwritev_async(self, ops: Sequence[tuple[int, bytes]]):
        """Process-generator: gather-write ``[(va, data), ...]``; see
        :meth:`rreadv_async`."""
        if not ops:
            raise ValueError("rwritev needs at least one (va, data) op")
        for _va, data in ops:
            if not data:
                raise ValueError("rwritev needs non-empty payloads")
        from repro.clib.batch import issue_vector
        return (yield from issue_vector(
            self, True, [(va, len(data), bytes(data)) for va, data in ops]))

    def rreadv(self, ops: Sequence[tuple[int, int]]):
        """Process-generator: blocking scatter read; returns the per-op
        bytes in order (raises on the first failed op)."""
        handles = yield from self.rreadv_async(ops)
        completions = yield from self.rpoll(handles)
        return [completion.result for completion in completions]

    def rwritev(self, ops: Sequence[tuple[int, bytes]]):
        """Process-generator: blocking gather write (raises on the first
        failed op)."""
        handles = yield from self.rwritev_async(ops)
        completions = yield from self.rpoll(handles)
        for completion in completions:
            completion.result   # surface any per-op failure
        return None

    def rpoll(self, handles: Sequence[AsyncHandle]):
        """Process-generator: wait for the given async operations.

        Accepts any mix of handle kinds (alloc/free/read/write, batched
        or not) and returns one :class:`~repro.clib.handles.Completion`
        per handle, in order.  Per-op failures land in the completion's
        ``status``/``error`` instead of raising here; use
        ``completion.result`` to unwrap (re-raising the failure).
        """
        completions = []
        for handle in handles:
            completion = yield from handle.poll()
            completions.append(completion)
        return completions

    # -- synchronization ---------------------------------------------------------------------

    def _atomic(self, va: int, op: AtomicOp) -> "AtomicResult":
        self.ops_issued += 1
        cache = self.process.node.cache
        guard = None
        if cache is not None:
            # Atomics execute at the MN; recall every cached copy of the
            # word's line — including our own — for the duration, so no
            # CN serves a pre-atomic value from its cache afterwards.
            guard = yield from cache.write_guard(self, va, 8)
        try:
            verifier = self.process.node.verifier
            token = (verifier.atomic_begin(self, va, op)
                     if verifier is not None else None)
            try:
                outcome = yield from self._transport.request(
                    self.process.mn, PacketType.ATOMIC, pid=self.process.pid,
                    va=va, payload=op)
            except BaseException:
                # Retries exhausted: the op may or may not have executed
                # (indeterminate in the recorded history).
                if token is not None:
                    verifier.atomic_failed(token, maybe_applied=True)
                raise
            try:
                check_reply(outcome, "atomic {}({:#x})", op.kind, va)
            except RemoteAccessError:
                # The MN answered with a rejection: the op never executed.
                if token is not None:
                    verifier.atomic_failed(token, maybe_applied=False)
                raise
            if token is not None:
                verifier.atomic_acked(token, outcome.body.atomic,
                                      outcome.retries)
            return outcome.body.atomic
        finally:
            if guard is not None:
                cache.guard_end(guard)

    def rlock(self, lock_va: int, backoff_ns: int = 200,
              max_backoff_ns: int = 8000):
        """Process-generator: acquire a remote lock (TAS with backoff)."""
        wait = backoff_ns
        attempts = 0
        while True:
            result = yield from self._atomic(lock_va, AtomicOp(kind="tas"))
            attempts += 1
            if result.success:
                return attempts
            yield self.env.timeout(wait)
            wait = min(wait * 2, max_backoff_ns)

    def runlock(self, lock_va: int):
        """Process-generator: release a lock (release semantics).

        All earlier asynchronous operations of this thread complete before
        the unlock is issued — the release ordering of section 3.1.
        """
        self._flush_batches()
        yield from self._tracker.drain()
        yield from self._atomic(lock_va, AtomicOp(kind="store", value=0))

    def rfence(self):
        """Process-generator: full fence.

        Drains this thread's in-flight requests, then asks the MN to
        block all future requests until its own in-flight ones complete.
        """
        self._flush_batches()
        yield from self._tracker.drain()
        self.ops_issued += 1
        outcome = yield from self._transport.request(
            self.process.mn, PacketType.FENCE, pid=self.process.pid)
        check_reply(outcome, "rfence")

    def rfaa(self, va: int, delta: int):
        """Process-generator: fetch-and-add; returns the old value."""
        result = yield from self._atomic(va, AtomicOp(kind="faa", value=delta))
        return result.old_value

    def rcas(self, va: int, expected: int, value: int):
        """Process-generator: compare-and-swap; returns (old, success)."""
        result = yield from self._atomic(
            va, AtomicOp(kind="cas", expected=expected, value=value))
        return result.old_value, result.success

    # -- extend path -----------------------------------------------------------------------------

    def invoke_offload(self, name: str, args):
        """Process-generator: call a computation offload at the MN."""
        self.ops_issued += 1
        outcome = yield from self._transport.request(
            self.process.mn, PacketType.OFFLOAD, pid=self.process.pid,
            payload=(name, args))
        check_reply(outcome, "offload {}", name)
        result = outcome.body.value
        if not result.ok:
            raise RemoteAccessError(Status.INVALID_VA,
                                    f"offload {name}: {result.error}")
        return result.value
