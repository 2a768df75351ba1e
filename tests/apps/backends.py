"""Each app built on each backend it runs on, for the app tests."""

from dataclasses import replace

from repro.apps.image_compression import ImageCompressionClient
from repro.apps.radix_tree import ClioRadixTree, RadixTree, register_chase_offload
from repro.baselines.api import ClioMemory, create_backend
from repro.cluster import ClioCluster
from repro.params import BackendParams, ClioParams

MB = 1 << 20

#: the backends every app test runs on
BACKENDS = ("clio", "rdma")


def rdma_node(capacity: int = 512 * MB):
    return create_backend("rdma", replace(
        ClioParams.prototype(), backend=BackendParams(dram_capacity=capacity)))


def radix_tree(name: str, capacity_nodes: int = 4096):
    """A set-up radix tree on backend ``name``; returns (env, tree)."""
    if name == "clio":
        cluster = ClioCluster(mn_capacity=512 * MB)
        register_chase_offload(cluster.mn.extend_path)
        tree = ClioRadixTree(cluster.cn(0).process("mn0").thread())
    else:
        tree = RadixTree(rdma_node())
    env = tree.memory.env
    env.run(until=env.process(tree.setup(capacity_nodes=capacity_nodes)))
    return env, tree


def image_clients(name: str, count: int, rng, **kwargs):
    """``count`` image-compression clients on backend ``name``, one CN
    (or QP) each; returns (env, clients)."""
    if name == "clio":
        cluster = ClioCluster(num_cns=count, mn_capacity=512 * MB)
        memories = [ClioMemory(cluster.cn(index).process("mn0").thread())
                    for index in range(count)]
    else:
        memories = [rdma_node()] * count
    return memories[0].env, [
        ImageCompressionClient(memory, rng.fork(f"c{index}"), **kwargs)
        for index, memory in enumerate(memories)]
