"""Shared experiment runners for the figure-regeneration benchmarks.

Each ``test_figNN_*`` file reproduces one figure/table of the paper's
evaluation: it runs the simulated experiment, prints the same rows or
series the paper reports, and asserts the qualitative *shape* (who wins,
by roughly what factor, where the knees fall).  Absolute numbers differ
from the paper's FPGA testbed; EXPERIMENTS.md records both side by side.
"""

from __future__ import annotations

from dataclasses import replace

from repro.cluster import ClioCluster
from repro.core.addr import AccessType
from repro.core.pipeline import Status
from repro.net.packet import PacketType
from repro.params import BackendParams, ClioParams

KB = 1 << 10
MB = 1 << 20
GB = 1 << 30
US = 1000


def backend_params(params: ClioParams | None = None,
                   **backend_kwargs) -> ClioParams:
    """Params with the per-backend setup knobs routed through
    :class:`repro.params.BackendParams` (the non-deprecated path)."""
    base = params or ClioParams.prototype()
    return replace(base, backend=BackendParams(**backend_kwargs))


def run_app(cluster: ClioCluster, generator):
    """Run one application process to completion."""
    return cluster.run(until=cluster.env.process(generator))


def make_cluster(num_cns: int = 1, mn_capacity: int = 1 * GB,
                 page_size=None, params=None, seed: int = 0,
                 layers: tuple = ()) -> ClioCluster:
    return ClioCluster(params=params or ClioParams.prototype(), seed=seed,
                       num_cns=num_cns, mn_capacity=mn_capacity,
                       page_size=page_size, layers=layers)


def clio_primed_thread(cluster: ClioCluster, region_bytes: int = 4 * MB,
                       cn_index: int = 0):
    """A thread with an allocated, first-touched region; returns (thread, va)."""
    thread = cluster.cn(cn_index).process("mn0").thread()
    holder = {}

    def prime():
        va = yield from thread.ralloc(region_bytes)
        # Touch every page so later accesses are fault-free.
        page = cluster.mn.page_spec.page_size
        for offset in range(0, region_bytes, page):
            yield from thread.rwrite(va + offset, b"\0" * 64)
        holder["va"] = va

    run_app(cluster, prime())
    return thread, holder["va"]


def clio_measure_ops(cluster: ClioCluster, thread, va: int, size: int,
                     count: int, write: bool = False,
                     offsets=None) -> list[int]:
    """Latencies (ns) of ``count`` sequential sync ops at va (+offsets)."""
    latencies: list[int] = []
    payload = b"x" * size

    def workload():
        for index in range(count):
            offset = offsets[index % len(offsets)] if offsets else 0
            start = cluster.env.now
            if write:
                yield from thread.rwrite(va + offset, payload)
            else:
                yield from thread.rread(va + offset, size)
            latencies.append(cluster.env.now - start)

    run_app(cluster, workload())
    return latencies


# Summary statistics: one shared, interpolated implementation for every
# figure benchmark (re-exported so `from bench_common import median` keeps
# working).
from repro.analysis.stats import mean, median, p99  # noqa: E402,F401
