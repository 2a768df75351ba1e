"""CLib: the compute-node user-space library (paper sections 3.1, 5).

Applications allocate and access disaggregated memory through explicit
calls: ``ralloc``/``rfree``, ``rread``/``rwrite`` (synchronous and
asynchronous), ``rpoll``, and synchronization primitives (``rlock``,
``runlock``, ``rfence``, atomics).  CLib owns request ordering, retry,
and congestion control; the MN stays transportless.

All operations are simulation process-generators: application code runs
as processes on a :class:`repro.sim.Environment` and ``yield from``s the
API, mirroring how real CLib calls block (sync) or return handles
(async).
"""

from repro.clib.client import (
    ClioProcess,
    ClioThread,
    ComputeNode,
    RemoteAccessError,
)
from repro.clib.handles import AsyncHandle

__all__ = [
    "AsyncHandle",
    "ClioProcess",
    "ClioThread",
    "ComputeNode",
    "RemoteAccessError",
]
