"""RemoteLock: the `ras_lock` of the paper's Figure 1, as an object.

A remote lock is an 8-byte word in some RAS; acquisition is a TAS at the
MN with exponential backoff, release is an atomic store (with release
ordering: the thread's in-flight asynchronous operations complete first).

    lock = yield from RemoteLock.create(thread)
    yield from lock.acquire()
    ...critical section...
    yield from lock.release()

One RemoteLock object may be shared by threads on any CN (construct more
handles with :meth:`handle_for` for threads using other transports).
"""

from __future__ import annotations

from repro.clib.client import ClioThread


class LockNotHeldError(Exception):
    """release() without a matching acquire() on this handle."""


class RemoteLock:
    """A handle to one remote lock word, bound to one thread."""

    def __init__(self, thread: ClioThread, lock_va: int):
        self.thread = thread
        self.lock_va = lock_va
        self.held = False
        self.acquisitions = 0
        self.contended_acquisitions = 0

    @classmethod
    def create(cls, thread: ClioThread):
        """Process-generator: allocate a fresh lock word and wrap it."""
        lock_va = yield from thread.ralloc(8)
        return cls(thread, lock_va)

    def handle_for(self, thread: ClioThread) -> "RemoteLock":
        """A handle to the *same* lock for another thread (any CN)."""
        return RemoteLock(thread, self.lock_va)

    def acquire(self, backoff_ns: int = 200, max_backoff_ns: int = 8000):
        """Process-generator: TAS loop with exponential backoff."""
        if self.held:
            raise LockNotHeldError("lock already held by this handle "
                                   "(non-reentrant)")
        attempts = yield from self.thread.rlock(
            self.lock_va, backoff_ns=backoff_ns,
            max_backoff_ns=max_backoff_ns)
        self.held = True
        self.acquisitions += 1
        if attempts > 1:
            self.contended_acquisitions += 1
        return attempts

    def release(self):
        """Process-generator: release with release-ordering semantics."""
        if not self.held:
            raise LockNotHeldError("release() without acquire()")
        self.held = False
        yield from self.thread.runlock(self.lock_va)

    def locked(self):
        """Process-generator: observe the lock word (non-atomic peek)."""
        word = yield from self.thread.rread(self.lock_va, 8)
        return int.from_bytes(word, "little") != 0
