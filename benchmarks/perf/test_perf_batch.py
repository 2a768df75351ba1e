"""The repro.clib.batch sweep: simulated throughput, batching on vs off.

Sweeps batch size (1 -> 64) x op size (16 B -> 4 KB) and reports
*simulated* ops/sec — operations per simulated nanosecond, a
deterministic number — with the adaptive batcher on versus off.  Both
sides pipeline the same number of outstanding async ops, so the delta
isolates what frames buy: one Clio header and one congestion-window
slot per *frame* instead of per op.

Writes carry the acceptance bar (>= 1.5x simulated ops/sec at 64 B with
the largest swept batch): small lone writes are congestion-window-bound
(cwnd slots x RTT), and a frame packs up to ``max_ops`` of them into one
slot.  Reads are swept too but are *expected* to stay near 1x at small
sizes — the board's read path serializes on the DMA engine's fixed
setup (the paper's Figure 9 bottleneck, ``FastPath._read_dma_free_at``),
a per-sub-op cost batching cannot amortize.  At 4 KB an op no longer
fits a frame and falls back to the classic path, so every ratio
collapses to ~1x: the sweep shows the crossover, not a free lunch.

Results land in ``BENCH_perf.json`` under the ``batch`` section.  Set
``REPRO_BENCH_TINY=1`` (the CI bench-smoke job does) to shrink the grid
and op counts.
"""

from __future__ import annotations

import os

from perf_common import record

from repro.cluster import ClioCluster
from repro.params import ClioParams

MB = 1 << 20
TINY = bool(os.environ.get("REPRO_BENCH_TINY"))

BATCH_SIZES = (1, 16) if TINY else (1, 4, 16, 64)
WRITE_SIZES = (64,) if TINY else (16, 64, 1024, 4096)
READ_SIZES = () if TINY else (64, 1024)
OPS = 96 if TINY else 512
PIPELINE_WINDOW = 32 if TINY else 256   # outstanding ops, both sides


def _measure(batch: int, op_size: int, kind: str, batching: bool) -> float:
    """Simulated ops/sec for one sweep cell (deterministic)."""
    cluster = ClioCluster(params=ClioParams.prototype(), seed=0,
                          mn_capacity=256 * MB)
    thread = (cluster.cn(0).process("mn0")
              .thread(ordering_granularity="byte"))
    holder = {}

    def prime():
        va = yield from thread.ralloc(8 * MB)
        page = cluster.mn.page_spec.page_size
        for offset in range(0, 8 * MB, page):
            yield from thread.rwrite(va + offset, b"\0" * 64)
        holder["va"] = va

    cluster.run(until=cluster.env.process(prime()))
    va = holder["va"]
    if batching:
        thread.enable_batching(max_ops=batch, window_ns=400)
    payload = b"b" * op_size
    start_ns = cluster.env.now

    def workload():
        handles = []
        for index in range(OPS):
            offset = (index * op_size) % (4 * MB)
            if kind == "write":
                handle = yield from thread.rwrite_async(va + offset, payload)
            else:
                handle = yield from thread.rread_async(va + offset, op_size)
            handles.append(handle)
            if len(handles) >= PIPELINE_WINDOW:
                for completion in (yield from thread.rpoll(handles)):
                    completion.result
                handles = []
        thread._flush_batches()
        for completion in (yield from thread.rpoll(handles)):
            completion.result

    cluster.run(until=cluster.env.process(workload()))
    elapsed_ns = cluster.env.now - start_ns
    return OPS * 1e9 / elapsed_ns


def _sweep(kind: str, op_sizes) -> dict[str, dict]:
    out: dict[str, dict] = {}
    for op_size in op_sizes:
        series = {}
        for batch in BATCH_SIZES:
            off = _measure(batch, op_size, kind, batching=False)
            on = _measure(batch, op_size, kind, batching=True)
            series[str(batch)] = {
                "sim_ops_per_sec_off": round(off),
                "sim_ops_per_sec_on": round(on),
                "speedup": round(on / off, 3),
            }
        out[f"{kind}_{op_size}B"] = {"kind": kind, "op_size": op_size,
                                     "ops": OPS, "series": series}
        print(f"{kind:>5} {op_size:>5}B: " + "  ".join(
            f"b{batch}={cell['speedup']:.2f}x"
            for batch, cell in series.items()))
    return out


def test_batch_sweep_speedup():
    sweep = _sweep("write", WRITE_SIZES)
    if READ_SIZES:
        sweep.update(_sweep("read", READ_SIZES))
    for name, cell in sweep.items():
        record("batch", f"sweep_{name}", cell)

    # Acceptance: >= 1.5x at 64 B writes with the largest swept batch.
    largest = str(BATCH_SIZES[-1])
    assert sweep["write_64B"]["series"][largest]["speedup"] >= 1.5
    # Batching never materially hurts, whatever the shape.
    for cell in sweep.values():
        for point in cell["series"].values():
            assert point["speedup"] >= 0.85
