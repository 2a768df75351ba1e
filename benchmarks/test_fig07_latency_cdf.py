"""Figure 7: request latency CDF of continuous 16B reads/writes.

Paper result: Clio's deterministic pipeline yields 2.5 us median and
3.2 us 99th-percentile end-to-end latency — a nearly vertical CDF — while
RDMA shows a long tail reaching into the tens of microseconds and beyond
(up to milliseconds when the host stack hiccups).
"""

from bench_common import backend_params, median, p99

from repro.analysis.report import render_table
from repro.analysis.stats import percentile
from repro.baselines.api import sample_latencies

OPS = 8000
SIZE = 16


def run_experiment():
    params = backend_params(dram_capacity=1 << 30)
    return {f"{name}_{'write' if write else 'read'}":
            sample_latencies(name, [SIZE], OPS, write, params)[0]
            for name in ("clio", "rdma") for write in (False, True)}


def test_fig07_latency_cdf(benchmark):
    results = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    rows = []
    for name, samples in results.items():
        rows.append([
            name,
            median(samples) / 1000,
            percentile(samples, 0.99) / 1000,
            percentile(samples, 0.999) / 1000,
            max(samples) / 1000,
        ])
    print()
    print(render_table("Figure 7: 16B latency distribution (us)",
                       ["series", "median", "p99", "p99.9", "max"], rows))

    clio_read = results["clio_read"]
    rdma_read = results["rdma_read"]

    # Clio: ~2.5us median, ~3.2us p99 — a tight distribution.
    med = median(clio_read) / 1000
    tail = p99(clio_read) / 1000
    assert 2.0 <= med <= 3.0
    assert tail <= 4.0
    assert tail / med < 1.6          # paper: 3.2/2.5 = 1.28

    # RDMA: similar median, far longer tail (orders of magnitude at p99.9).
    assert p99(rdma_read) / median(rdma_read) > 2.0
    assert percentile(rdma_read, 0.999) / median(rdma_read) > 10
    assert max(rdma_read) > max(clio_read) * 5

    # Writes show the same separation.
    assert p99(results["clio_write"]) / median(results["clio_write"]) < 1.6
    assert (p99(results["rdma_write"]) / median(results["rdma_write"])
            > p99(results["clio_write"]) / median(results["clio_write"]))
