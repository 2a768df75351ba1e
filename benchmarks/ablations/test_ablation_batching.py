"""Ablation: adaptive request batching on vs off (repro.clib.batch).

Sweeps batch size (1 -> 64) x op size (16 B -> 4 KB) and compares
*simulated* ops/sec — a deterministic number — with the batcher on
versus off.  Both sides pipeline the same number of outstanding async
ops, so the delta isolates what frames buy: one Clio header and one
congestion-window slot per *frame* instead of per op.

Writes carry the bar (>= 1.5x at 64 B with the largest swept batch):
small lone writes are congestion-window-bound (cwnd slots x RTT), and a
frame packs up to ``max_ops`` of them into one slot.  Reads are swept
too but are *expected* to stay near 1x at small sizes — the board's
read path serializes on the DMA engine's fixed setup (the paper's
Figure 9 bottleneck), a per-sub-op cost batching cannot amortize.  At
4 KB an op no longer fits a frame and falls back to the classic path,
so every ratio collapses to ~1x: the sweep shows the crossover, not a
free lunch.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from bench_common import MB, make_cluster, run_app

from repro.analysis.report import render_table

BATCH_SIZES = (1, 4, 16, 64)
OP_SIZES = {"write": (16, 64, 1024, 4096), "read": (64, 1024)}
OPS = 512
PIPELINE_WINDOW = 256   # outstanding ops, both sides
REGION = 8 * MB


def sim_ops_per_sec(kind: str, op_size: int, batch: int = 0) -> float:
    """One sweep cell; ``batch=0`` is the batching-off baseline."""
    cluster = make_cluster(mn_capacity=256 * MB)
    thread = (cluster.cn(0).process("mn0")
              .thread(ordering_granularity="byte"))

    def prime():
        va = yield from thread.ralloc(REGION)
        page = cluster.mn.page_spec.page_size
        for offset in range(0, REGION, page):
            yield from thread.rwrite(va + offset, b"\0" * 64)
        return va

    va = run_app(cluster, prime())
    if batch:
        thread.enable_batching(max_ops=batch, window_ns=400)
    payload = b"b" * op_size
    started = cluster.env.now

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

    run_app(cluster, workload())
    return OPS * 1e9 / (cluster.env.now - started)


def run_experiment():
    """{"write_64B": {batch: on/off speedup}, ...}"""
    results = {}
    for kind, sizes in OP_SIZES.items():
        for op_size in sizes:
            off = sim_ops_per_sec(kind, op_size)
            results[f"{kind}_{op_size}B"] = {
                batch: round(sim_ops_per_sec(kind, op_size, batch) / off, 3)
                for batch in BATCH_SIZES}
    return results


def test_ablation_batching(benchmark):
    results = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    print()
    print(render_table(
        "Ablation: batching on/off, simulated ops/sec speedup",
        ["workload"] + [f"batch {batch}" for batch in BATCH_SIZES],
        [[name] + [series[batch] for batch in BATCH_SIZES]
         for name, series in results.items()]))

    # >= 1.5x at 64 B writes with the largest swept batch...
    assert results["write_64B"][BATCH_SIZES[-1]] >= 1.5
    # ...and batching never materially hurts, whatever the shape.
    for series in results.values():
        for speedup in series.values():
            assert speedup >= 0.85
