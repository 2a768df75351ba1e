"""Per-thread request batching: the CLib half of multi-op frames.

Small remote ops pay a full Clio header and a congestion-window slot
each; a :class:`ThreadBatcher` coalesces ops issued within a time/count
window into one multi-op BATCH frame so the header, the CLib per-request
overhead, and the window slot amortize across the batch.  Batching is
strictly opt-in per thread (``ClioThread.enable_batching``, or a vector
op): with it off, no code in this module runs and event sequences stay
bit-identical.

The explicit vector ops (``rreadv``/``rwritev``) reuse the same frame
machinery without the adaptive window: the caller's list *is* the batch,
greedily chunked into MTU-sized frames that are all issued concurrently
(pipelined), one window slot per frame.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

from repro.clib.client import RemoteAccessError, settle
from repro.core.pipeline import Status
from repro.net.packet import BatchSubOp, PacketType
from repro.sim import Event


@dataclass(slots=True)
class _PendingOp:
    """One submitted op waiting for (or riding) a frame."""

    is_write: bool
    va: int
    size: int
    data: Optional[bytes]
    done: Event                   # dependency-tracker completion
    completion: Event             # fulfils the op's AsyncHandle
    vtoken: Any                   # verifier token (None when disabled)


def _subop_cost(net, is_write: bool, size: int) -> int:
    """Wire bytes one sub-op adds to a frame."""
    return net.subop_header_bytes + (size if is_write else 0)


def _issue_frame(thread, ops: list[_PendingOp]):
    """Process-generator: one frame on the wire, fan the ack back out.

    The transport treats the frame as a single request (one ID, one
    retransmission unit); this generator settles every rider with its
    own sub-op status — or, when the whole frame failed (retries
    exhausted), with that failure, the same way a lone op would.
    """
    process = thread.process
    sub_ops = tuple(
        BatchSubOp(op=PacketType.WRITE if op.is_write else PacketType.READ,
                   va=op.va, size=op.size, data=op.data)
        for op in ops)
    try:
        outcome = yield from process.node.transport.request_batch(
            process.mn, process.pid, sub_ops)
    except BaseException as exc:
        for op in ops:
            settle(thread, op.is_write, op.vtoken, error=exc,
                   completion=op.completion, done=op.done)
        return
    offset = 0
    for op, status in zip(ops, outcome.statuses):
        part = error = None
        if status is not Status.OK:
            kind = "write" if op.is_write else "read"
            error = RemoteAccessError(
                status, f"r{kind}({op.va:#x}, {op.size})")
        elif not op.is_write:
            part = outcome.data[offset:offset + op.size]
            offset += op.size
        settle(thread, op.is_write, op.vtoken, part, outcome.retries, error,
               op.completion, op.done)


class ThreadBatcher:
    """Coalesces one thread's small async ops into multi-op frames.

    Flush policy (adaptive window):

    * a frame fills to ``max_ops`` sub-ops → flushed immediately;
    * adding an op would overflow the frame byte budget (one MTU:
      descriptors + write payloads must fit one link-layer packet, so a
      frame never needs request fragmentation) → the pending frame is
      flushed first, the op starts a new one;
    * otherwise a timer flushes whatever accumulated ``window_ns`` after
      the first op of the frame arrived (0 = coalesce only ops issued at
      the same instant).  ``timed=False`` drops the timer: the caller
      flushes explicitly (a vector op, whose list *is* the batch).
    """

    def __init__(self, thread, max_ops: Optional[int] = None,
                 window_ns: Optional[int] = None, timed: bool = True):
        params = thread.process.node.params
        clib = params.clib
        self.thread = thread
        self.env = thread.env
        self.max_ops = max_ops if max_ops is not None else clib.batch_max_ops
        self.window_ns = (window_ns if window_ns is not None
                          else clib.batch_window_ns)
        if self.max_ops < 1:
            raise ValueError(f"max_ops must be >= 1, got {self.max_ops}")
        self._net = params.network
        self._pending: list[_PendingOp] = []
        self._pending_bytes = 0
        self._timer_armed = not timed    # never arms when untimed
        self.frames_issued = 0
        self.subops_batched = 0

    @property
    def pending_ops(self) -> int:
        """Ops submitted but not yet flushed onto the wire."""
        return len(self._pending)

    def admits(self, is_write: bool, size: int) -> bool:
        """True when an op of this shape can ride a frame at all."""
        return _subop_cost(self._net, is_write, size) <= self._net.mtu

    def submit(self, is_write: bool, va: int, size: int, data: Optional[bytes],
               done: Event, vtoken: Any) -> Event:
        """Queue one op; returns the event that fulfils its handle."""
        cost = _subop_cost(self._net, is_write, size)
        if self._pending and self._pending_bytes + cost > self._net.mtu:
            self.flush()
        completion = self.env.event()
        self._pending.append(_PendingOp(is_write, va, size, data, done,
                                        completion, vtoken))
        self._pending_bytes += cost
        if len(self._pending) >= self.max_ops:
            self.flush()
        elif not self._timer_armed:
            self._timer_armed = True
            self.env.schedule_callback(self.window_ns, self._on_timer)
        return completion

    def _on_timer(self) -> None:
        self._timer_armed = False
        if self._pending:
            self.flush()

    def flush(self) -> None:
        """Issue the pending frame now (no-op when nothing is pending)."""
        if not self._pending:
            return
        frame = self._pending
        self._pending = []
        self._pending_bytes = 0
        self.frames_issued += 1
        self.subops_batched += len(frame)
        self.env.process(_issue_frame(self.thread, frame))


def issue_vector(thread, is_write: bool, specs):
    """Process-generator shared by rreadv_async/rwritev_async.

    ``specs`` is a list of (va, size, data) triples.  Each op goes
    through the thread's one admit-and-route step in list order, with a
    private batcher as the frame sink: ops that fit are greedily chunked
    into MTU-sized frames, the rest take the classic per-op (or cached)
    route.  Every frame and lone op is in flight concurrently when this
    returns — the pipelined issue the paper's async API exists for.
    Returns one AsyncHandle per op, in order.
    """
    batcher = thread.batcher
    frames = ThreadBatcher(
        thread, max_ops=batcher.max_ops if batcher else None, timed=False)
    handles = []
    for va, size, data in specs:
        if frames.pending_ops and thread.tracker.conflicts(
                va, size, is_write=is_write):
            # The conflict may be with an op in the unsent chunk, whose
            # completion needs the chunk on the wire: flush before waiting
            # (ops conflicting within a vector serialize, frame by frame,
            # exactly like the classic per-op async path).
            frames.flush()
        handle = yield from thread._issue_async(is_write, va, size, data,
                                                frames)
        handles.append(handle)
    frames.flush()
    return handles
