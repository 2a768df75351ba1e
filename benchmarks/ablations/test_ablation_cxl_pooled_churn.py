"""Ablation: shared write churn with vs without cache coherence.

Two clients hammer 1 KB writes at one shared 8 KB window.  On a pooled
CXL device the hosts ping-pong dirty lines, paying a back-invalidation
recall per touched line; Clio's RPC writes have no coherence protocol
to pay.  CXL wins the 64 B sub-line read
(``tests/baselines/test_backend_api.py::test_cxl_wins_sub_line_reads``),
so it must *lose* this one — winning both would mean the coherence
model is broken.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from bench_common import KB, MB, make_cluster, median, p99

from repro.analysis.report import render_table
from repro.baselines.cxl import CXLPool
from repro.params import ClioParams
from repro.sim import Environment

CLIENTS = 2
OPS = 200           # per client
SIZE = 1 * KB
WINDOW = 8          # distinct 1 KB slots, shared by both clients
SEED = 7


def cxl_write_latencies() -> list[int]:
    """Two hosts ping-pong 1 KB stores on one shared region."""
    env = Environment()
    pool = CXLPool(env, ClioParams.prototype(), capacity=64 * MB)
    hosts = [pool.host(f"h{index}") for index in range(CLIENTS)]
    latencies: list[int] = []
    region = env.run(until=env.process(hosts[0].alloc(64 * KB)))

    def client(host, index):
        payload = bytes([index]) * SIZE
        for op in range(OPS):
            latency = yield from host.store(
                region, (op % WINDOW) * SIZE, payload)
            latencies.append(latency)

    env.run(until=env.all_of([env.process(client(host, index))
                              for index, host in enumerate(hosts)]))
    return latencies


def clio_write_latencies() -> list[int]:
    """Two CN threads issue 1 KB RPC writes to regions on one MN."""
    cluster = make_cluster(num_cns=CLIENTS, mn_capacity=256 * MB, seed=SEED)
    env = cluster.env
    latencies: list[int] = []

    def client(index):
        thread = cluster.cn(index).process("mn0").thread()
        va = yield from thread.ralloc(64 * KB)
        yield from thread.rwrite(va, b"\0" * 64)        # fault the page in
        payload = bytes([index + 1]) * SIZE
        for op in range(OPS):
            begin = env.now
            yield from thread.rwrite(va + (op % WINDOW) * SIZE, payload)
            latencies.append(env.now - begin)

    cluster.run_all(env.process(client(index)) for index in range(CLIENTS))
    return latencies


def run_experiment():
    return {"cxl": cxl_write_latencies(), "clio": clio_write_latencies()}


def test_ablation_cxl_pooled_churn(benchmark):
    results = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    rows = {name: (round(median(latencies)), round(p99(latencies)))
            for name, latencies in results.items()}
    print()
    print(render_table(
        "Ablation: 1KB shared write churn, 2 clients (ns)",
        ["system", "write p50", "write p99"],
        [["CXL pool (coherent)", *rows["cxl"]],
         ["Clio (RPC writes)", *rows["clio"]]], width=20))

    # Coherence recalls make the pooled device's churn tail lose.
    assert rows["cxl"][1] > rows["clio"][1]
