"""Figures 10 & 11: read/write latency vs request size across systems.

Paper result: Clio's latency is similar to HERD and close to native
RDMA (despite the FPGA's low clock).  Clover's write is worst (>= 2 RTTs
for consistency with a passive MN).  HERD-BF sits far above host-CPU HERD
(chip-to-chip crossing).  LegoOS is ~2x Clio at small sizes (software MN).
"""

from bench_common import KB, backend_params, median

from repro.analysis.report import render_series
from repro.baselines.api import sample_latencies

SIZES = [16, 64, 256, 1 * KB]
OPS = 120

#: figure label -> backend name
SYSTEMS = {"Clio": "clio", "RDMA": "rdma", "Clover": "clover",
           "HERD": "herd", "HERD-BF": "herd-bf", "LegoOS": "legoos"}


def run_experiment():
    params = backend_params(dram_capacity=1 << 30)
    return {
        "write" if write else "read": {
            label: [median(samples) / 1000 for samples in sample_latencies(
                name, SIZES, OPS, write, params)]
            for label, name in SYSTEMS.items()}
        for write in (False, True)}


def test_fig10_11_latency_comparison(benchmark):
    systems = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    print()
    for figure, key in (("Figure 10: read latency (us)", "read"),
                        ("Figure 11: write latency (us)", "write")):
        print(render_series(figure, "size_B", SIZES,
                            {name: [round(v, 2) for v in series]
                             for name, series in systems[key].items()}))

    reads, writes = systems["read"], systems["write"]

    # Clio similar to HERD, close to RDMA (within ~2x at small sizes).
    assert reads["Clio"][0] < reads["HERD"][0] * 1.5
    assert reads["Clio"][0] < reads["RDMA"][0] * 2.0

    # Clover write is the worst (>= 2 RTTs for its consistency).
    for index in range(len(SIZES)):
        for other in ("Clio", "RDMA", "HERD", "LegoOS"):
            assert writes["Clover"][index] > writes[other][index]
    assert writes["Clover"][0] > 1.4 * reads["Clover"][0]

    # HERD-BF far above host HERD (chip-to-chip crossing).
    for index in range(len(SIZES)):
        assert reads["HERD-BF"][index] > reads["HERD"][index] + 2.0

    # LegoOS roughly 2x Clio at small sizes (software MN handling).
    ratio = reads["LegoOS"][0] / reads["Clio"][0]
    assert 1.4 <= ratio <= 3.0
