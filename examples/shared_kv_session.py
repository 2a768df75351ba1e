#!/usr/bin/env python3
"""Clio-KV: a key-value store offloaded to the memory node, shared by CNs.

Deploys the Clio-KV offload on a CBoard, then drives it from two compute
nodes concurrently with a YCSB-B-style mix (95% get / 5% set, Zipf keys).
Every operation is a single OFFLOAD round trip; the chained hash table and
the values live in the offload's own remote address space at the MN.

Run:  python examples/shared_kv_session.py
"""

from repro import ClioCluster
from repro.analysis.stats import LatencyRecorder
from repro.apps.kv_store import ClioKV, register_kv_offload
from repro.sim.rng import RandomStream
from repro.workloads.ycsb import YCSB_WORKLOADS, YCSBWorkload

MB = 1 << 20


def main() -> None:
    cluster = ClioCluster(num_cns=2, mn_capacity=1 << 30)
    register_kv_offload(cluster.mn.extend_path, buckets=1024,
                        capacity=64 * MB)
    rng = RandomStream(7, "kv-session")

    num_keys = 200
    ops_per_client = 150
    workload_template = YCSBWorkload(
        YCSB_WORKLOADS["B"], rng.fork("load"), num_keys=num_keys,
        value_size=256)

    kv0 = ClioKV(cluster.cn(0).process("mn0").thread())
    kv1 = ClioKV(cluster.cn(1).process("mn0").thread())
    recorders = {"cn0": LatencyRecorder("cn0"), "cn1": LatencyRecorder("cn1")}

    def loader():
        for key, value in workload_template.load_phase():
            yield from kv0.put(key, value)

    print("== Clio-KV shared session ==")
    cluster.run(until=cluster.env.process(loader()))
    print(f"loaded {num_keys} keys "
          f"({cluster.env.now / 1_000_000:.2f} ms simulated)")

    def client(kv: ClioKV, name: str, seed: str):
        workload = YCSBWorkload(YCSB_WORKLOADS["B"], rng.fork(seed),
                                num_keys=num_keys, value_size=256,
                                zipf_table=workload_template.zipf)
        for op in workload.operations(ops_per_client):
            start = cluster.env.now
            if op[0] == "get":
                yield from kv.get(op[1])
            else:
                yield from kv.put(op[1], op[2])
            recorders[name].add(cluster.env.now - start)

    p0 = cluster.env.process(client(kv0, "cn0", "c0"))
    p1 = cluster.env.process(client(kv1, "cn1", "c1"))
    cluster.run(until=cluster.env.all_of([p0, p1]))

    for name, recorder in recorders.items():
        summary = recorder.summary()
        print(f"{name}: {summary['count']} ops, "
              f"median {summary['median_us']:.1f} us, "
              f"p99 {summary['p99_us']:.1f} us")
    stats = cluster.mn.metrics.snapshot()
    print(f"CBoard: {stats['requests_served']} requests served, "
          f"memory utilization {stats['memory_utilization']:.0%}")
    print("\nBoth CNs share one KV namespace with atomic writes and")
    print("read-committed reads — no cross-CN coordination needed.")


if __name__ == "__main__":
    main()
