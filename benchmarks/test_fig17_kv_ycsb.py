"""Figure 17: key-value store latency under YCSB A/B/C.

Paper setup: two CNs x 8 threads, 100K 1KB entries, Zipf(0.99) keys,
three get/set mixes — C (100% get), B (5% set), A (50% set).
Paper result: Clio-KV performs best; Clover suffers on set-heavy mixes
(>= 2 RTT writes); HERD-BF is the slowest throughout.

Scaled down (1K keys, 600 ops/mix) to keep the simulation fast; the
orderings are scale-free.
"""

from bench_common import GB, MB, backend_params, make_cluster, mean, run_app

from repro.analysis.report import render_table
from repro.apps.kv_store import ClioKV, register_kv_offload
from repro.baselines.clover import CloverStore
from repro.baselines.served import ServedMemoryNode
from repro.params import ClioParams
from repro.sim import Environment
from repro.sim.rng import RandomStream
from repro.workloads.ycsb import YCSB_WORKLOADS, YCSBWorkload

NUM_KEYS = 1000
OPS = 960
VALUE = 1024
THREADS = 16         # the paper's setup: 2 CNs x 8 threads


def make_workloads(seed_tag: str):
    rng = RandomStream(23, seed_tag)
    shared = YCSBWorkload(YCSB_WORKLOADS["C"], rng.fork("zipf-build"),
                          num_keys=NUM_KEYS, value_size=VALUE)
    per_thread = {}
    for mix in ("A", "B", "C"):
        per_thread[mix] = [
            YCSBWorkload(YCSB_WORKLOADS[mix], rng.fork(f"{mix}/{index}"),
                         num_keys=NUM_KEYS, value_size=VALUE,
                         zipf_table=shared.zipf)
            for index in range(THREADS)
        ]
    return shared, per_thread


def clio_kv_latencies() -> dict[str, float]:
    shared, per_thread = make_workloads("clio")
    results = {}
    for mix in ("A", "B", "C"):
        cluster = make_cluster(num_cns=2, mn_capacity=2 * GB)
        register_kv_offload(cluster.mn.extend_path, buckets=4 * NUM_KEYS,
                            capacity=256 * MB)
        stores = [ClioKV(cluster.cn(index % 2).process("mn0").thread())
                  for index in range(THREADS)]

        def load():
            for key, value in shared.load_phase():
                yield from stores[0].put(key, value)

        run_app(cluster, load())
        latencies = []

        def client(store, workload):
            for op in workload.operations(OPS // THREADS):
                start = cluster.env.now
                if op[0] == "get":
                    yield from store.get(op[1])
                else:
                    yield from store.put(op[1], op[2])
                latencies.append(cluster.env.now - start)

        procs = [cluster.env.process(client(store, workload))
                 for store, workload in zip(stores, per_thread[mix])]
        cluster.run(until=cluster.env.all_of(procs))
        results[mix] = mean(latencies) / 1000
    return results


def baseline_latencies(factory) -> dict[str, float]:
    shared, per_thread = make_workloads("baseline")
    results = {}
    for mix in ("A", "B", "C"):
        env = Environment()
        store = factory(env)
        setup = getattr(store, "setup", None)
        if setup is not None:
            env.run(until=env.process(store.setup()))

        def load():
            for key, value in shared.load_phase():
                yield from store.put(key, value)

        env.run(until=env.process(load()))
        latencies = []

        def client(workload):
            for op in workload.operations(OPS // THREADS):
                start = env.now
                if op[0] == "get":
                    yield from store.get(op[1])
                else:
                    yield from store.put(op[1], op[2])
                latencies.append(env.now - start)

        procs = [env.process(client(workload))
                 for workload in per_thread[mix]]
        env.run(until=env.all_of(procs))
        results[mix] = mean(latencies) / 1000
    return results


def run_experiment():
    params = backend_params(dram_capacity=2 * GB, capacity_slots=1 << 16)
    return {
        "Clio-KV": clio_kv_latencies(),
        "Clover": baseline_latencies(lambda env: CloverStore(env, params)),
        "HERD": baseline_latencies(
            lambda env: ServedMemoryNode(env, params, "herd")),
        "HERD-BF": baseline_latencies(
            lambda env: ServedMemoryNode(env, params, "herd-bf")),
    }


def test_fig17_kv_ycsb(benchmark):
    results = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    rows = [[system, values["A"], values["B"], values["C"]]
            for system, values in results.items()]
    print()
    print(render_table(
        "Figure 17: YCSB mean latency (us) — A(50% set) B(5%) C(0%)",
        ["system", "YCSB-A", "YCSB-B", "YCSB-C"], rows))

    for mix in ("A", "B", "C"):
        # Clio-KV performs the best on every mix.
        for other in ("Clover", "HERD", "HERD-BF"):
            assert results["Clio-KV"][mix] < results[other][mix], (
                f"{other} beat Clio-KV on YCSB-{mix}")
        # HERD-BF is the slowest.
        assert results["HERD-BF"][mix] > results["HERD"][mix]

    # Clover degrades most from C to A (write-heavy hurts PDM).
    clover_penalty = results["Clover"]["A"] / results["Clover"]["C"]
    herd_penalty = results["HERD"]["A"] / results["HERD"]["C"]
    assert clover_penalty > herd_penalty
