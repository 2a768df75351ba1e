"""Clio: a hardware-software co-designed disaggregated memory system.

Simulation-based reproduction of Guo, Shan, Luo, Huang, Zhang (ASPLOS
2022).  The package models the complete system — the CBoard memory node
(hardware virtual memory, deterministic fast path, ARM slow path, extend
path), the CN-side CLib (ordering, retry, congestion control), the
Ethernet fabric, and the paper's baselines (RDMA, LegoOS, Clover, HERD)
— as a deterministic discrete-event simulation.

Quickstart::

    from repro import ClioCluster

    cluster = ClioCluster()
    thread = cluster.cn(0).process("mn0").thread()

    def app():
        va = yield from thread.ralloc(4096)
        yield from thread.rwrite(va, b"hello, disaggregated world")
        data = yield from thread.rread(va, 26)
        assert data == b"hello, disaggregated world"

    cluster.run(until=cluster.env.process(app()))
"""

import importlib

__version__ = "1.0.0"

#: Each root export and the module it lives in.  They load on first use,
#: so ``import repro.sim`` (the bare engine) compiles no model code.
_EXPORTS = {
    "AsyncHandle": "repro.clib",
    "CBoard": "repro.core",
    "ClioCluster": "repro.cluster",
    "ClioParams": "repro.params",
    "ClioProcess": "repro.clib",
    "ClioThread": "repro.clib",
    "ComputeNode": "repro.clib",
    "Permission": "repro.core.addr",
    "RemoteAccessError": "repro.clib",
}

__all__ = [*_EXPORTS, "__version__"]


def __getattr__(name: str):
    if name in _EXPORTS:
        return getattr(importlib.import_module(_EXPORTS[name]), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
