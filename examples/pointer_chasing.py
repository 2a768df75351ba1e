#!/usr/bin/env python3
"""Pointer chasing: radix-tree search offloaded to the memory node.

Builds the same radix tree twice — once on Clio (searching via the
extended pointer-chasing API that runs *at* the MN, one round trip per
tree level) and once on native RDMA (the client walks node by node, one
round trip per node) — and compares search latency as the tree grows.
This is the paper's Figure 16 experiment at example scale.

Run:  python examples/pointer_chasing.py
"""

from dataclasses import replace

from repro import ClioCluster
from repro.apps.radix_tree import ClioRadixTree, RadixTree, register_chase_offload
from repro.baselines.api import create_backend
from repro.params import BackendParams, ClioParams


def build_keys(count: int) -> list[bytes]:
    return [b"key-%06d" % index for index in range(count)]


def clio_tree() -> ClioRadixTree:
    """A tree on Clio, its sibling walks offloaded to the MN."""
    cluster = ClioCluster(mn_capacity=1 << 30)
    register_chase_offload(cluster.mn.extend_path)
    return ClioRadixTree(cluster.cn(0).process("mn0").thread())


def rdma_tree() -> RadixTree:
    """The same tree on native RDMA, walked node by node from the client."""
    params = replace(ClioParams.prototype(),
                     backend=BackendParams(dram_capacity=1 << 30))
    return RadixTree(create_backend("rdma", params))


def search_us(tree: RadixTree, keys: list[bytes],
              probes: list[bytes]) -> float:
    env = tree.memory.env
    latencies: list[int] = []

    def app():
        yield from tree.setup(capacity_nodes=1 << 17)
        for index, key in enumerate(keys):
            yield from tree.insert(key, index + 1)
        for probe in probes:
            start = env.now
            value = yield from tree.search(probe)
            assert value is not None
            latencies.append(env.now - start)

    env.run(until=env.process(app()))
    return sum(latencies) / len(latencies) / 1000


def main() -> None:
    print("== Radix-tree search: offloaded pointer chasing vs RDMA walks ==")
    print(f"{'keys':>6} | {'Clio (us)':>10} | {'RDMA (us)':>10} | {'speedup':>8}")
    print("-" * 45)
    for count in (64, 256, 1024):
        keys = build_keys(count)
        probes = keys[:: max(1, count // 16)][:16]
        clio = search_us(clio_tree(), keys, probes)
        rdma = search_us(rdma_tree(), keys, probes)
        print(f"{count:>6} | {clio:>10.1f} | {rdma:>10.1f} | "
              f"{rdma / clio:>7.1f}x")
    print("\nClio pays one round trip per tree level (the chase runs at the")
    print("MN); RDMA pays one per node visited, so it falls behind as the")
    print("sibling lists grow.")


if __name__ == "__main__":
    main()
