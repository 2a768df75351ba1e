"""Figure 16: radix-tree search latency vs tree size.

Paper result: RDMA is worse than Clio because it needs multiple network
round trips to traverse the tree (one per node visited), while Clio does
each level's pointer chase at the MN (one RTT per level); RDMA also
scales worse as the tree grows.
"""

from bench_common import GB, backend_params, make_cluster, mean

from repro.analysis.report import render_series
from repro.apps.radix_tree import ClioRadixTree, RadixTree, register_chase_offload
from repro.baselines.api import create_backend

TREE_SIZES = [128, 512, 2048]
PROBES = 24


def tree_keys(count: int) -> list[bytes]:
    # Keys share structure so sibling lists grow with the tree (the case
    # where MN-side chasing matters most).
    return [b"%03x-key" % index for index in range(count)]


def clio_tree() -> ClioRadixTree:
    cluster = make_cluster(mn_capacity=1 * GB)
    register_chase_offload(cluster.mn.extend_path)
    return ClioRadixTree(cluster.cn(0).process("mn0").thread())


def rdma_tree() -> RadixTree:
    return RadixTree(create_backend("rdma",
                                    backend_params(dram_capacity=1 * GB)))


def search_us(tree: RadixTree, count: int) -> float:
    """Mean search latency over ``PROBES`` keys of a ``count``-key tree."""
    env = tree.memory.env
    keys = tree_keys(count)
    probes = keys[:: max(1, count // PROBES)][:PROBES]
    latencies = []

    def app():
        yield from tree.setup(capacity_nodes=1 << 16)
        for index, key in enumerate(keys):
            yield from tree.insert(key, index + 1)
        for probe in probes:
            start = env.now
            value = yield from tree.search(probe)
            assert value is not None
            latencies.append(env.now - start)

    env.run(until=env.process(app()))
    return mean(latencies) / 1000


def run_experiment():
    return {
        "clio": [search_us(clio_tree(), count) for count in TREE_SIZES],
        "rdma": [search_us(rdma_tree(), count) for count in TREE_SIZES],
    }


def test_fig16_radix_tree(benchmark):
    results = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    print()
    print(render_series("Figure 16: radix tree search latency (us)",
                        "keys", TREE_SIZES,
                        {"Clio": [round(v, 1) for v in results["clio"]],
                         "RDMA": [round(v, 1) for v in results["rdma"]]}))

    clio, rdma = results["clio"], results["rdma"]

    # Clio beats RDMA at every size.
    for c, r in zip(clio, rdma):
        assert c < r

    # And the gap widens as the tree (and its sibling lists) grow.
    assert rdma[-1] / clio[-1] > rdma[0] / clio[0]
    assert rdma[-1] / clio[-1] > 2.0
