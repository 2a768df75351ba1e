"""A primed data op leaves no reference cycle behind.

Everything one op allocates -- its request state, packets, timers, the
ack lane's bound callback -- must be freed by reference counting the
moment the op is done.  Garbage that only the cycle collector can free
grows the heap between collections and costs peak RSS on the contended
workloads.  Storing the ack lane as a closure on the request state, for
one, leaves 7 cyclic objects per op.
"""

import gc

from repro.cluster import ClioCluster
from repro.params import ClioParams

MB = 1 << 20
US = 1_000
OPS = 200


def test_primed_reads_and_writes_leave_no_cyclic_garbage():
    cluster = ClioCluster(params=ClioParams.prototype(), mn_capacity=512 * MB)
    env = cluster.env
    thread = cluster.cn(0).process("mn0").thread()
    found = {}

    def app():
        va = yield from thread.ralloc(4 * MB)
        yield from thread.rwrite(va, b"p" * 64)      # prime PTE + TLB
        yield from thread.rread(va, 64)
        yield env.timeout(100 * US)                  # stale TIMEOUTs pop
        gc.collect()
        gc.disable()
        try:
            for _ in range(OPS):
                yield from thread.rread(va, 64)
                yield from thread.rwrite(va, b"q" * 64)
            yield env.timeout(100 * US)
            found["cyclic"] = gc.collect()
        finally:
            gc.enable()

    env.run(until=env.process(app()))
    assert found["cyclic"] == 0
