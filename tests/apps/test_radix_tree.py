"""Tests for the radix tree, on every backend, and its pointer-chasing
offload on Clio."""

import pytest

from repro.apps.radix_tree import (
    ClioRadixTree,
    pack_node,
    register_chase_offload,
    unpack_node,
)
from repro.cluster import ClioCluster

from tests.apps.backends import BACKENDS, MB, radix_tree


def test_node_pack_unpack_roundtrip():
    blob = pack_node(0x41, 123456, 789, 42)
    assert unpack_node(blob) == (0x41, 123456, 789, 42)
    with pytest.raises(ValueError):
        unpack_node(b"short")


def run(env, generator):
    return env.run(until=env.process(generator))


@pytest.mark.parametrize("name", BACKENDS)
def test_insert_and_search(name):
    env, tree = radix_tree(name)
    result = {}

    def app():
        yield from tree.insert(b"cat", 1)
        yield from tree.insert(b"car", 2)
        yield from tree.insert(b"dog", 3)
        for key in (b"cat", b"car", b"dog", b"cow", b"ca"):
            result[key] = yield from tree.search(key)

    run(env, app())
    assert result == {b"cat": 1, b"car": 2, b"dog": 3, b"cow": None,
                      b"ca": None}
    assert tree.key_count == 3


@pytest.mark.parametrize("name", BACKENDS)
def test_update_existing_key(name):
    env, tree = radix_tree(name)

    def app():
        yield from tree.insert(b"key", 10)
        yield from tree.insert(b"key", 20)
        return (yield from tree.search(b"key"))

    assert run(env, app()) == 20


@pytest.mark.parametrize("name", BACKENDS)
def test_rejects_reserved_value_and_empty_key(name):
    env, tree = radix_tree(name)

    def app():
        yield from tree.insert(b"k", 5)
        with pytest.raises(ValueError):
            yield from tree.insert(b"k", 0)
        with pytest.raises(ValueError):
            yield from tree.insert(b"", 5)
        return (yield from tree.search(b""))

    assert run(env, app()) is None
    assert tree.key_count == 1


@pytest.mark.parametrize("name", BACKENDS)
def test_search_of_an_empty_tree_misses(name):
    env, tree = radix_tree(name)

    def app():
        empty = yield from tree.search(b"")
        return empty, (yield from tree.search(b"a"))

    assert run(env, app()) == (None, None)


@pytest.mark.parametrize("name", BACKENDS)
def test_full_region_raises_memory_error(name):
    env, tree = radix_tree(name, capacity_nodes=4)

    def app():
        yield from tree.insert(b"abc", 1)     # offset 0 is null: 3 nodes fit
        with pytest.raises(MemoryError):
            yield from tree.insert(b"x", 2)

    run(env, app())


def test_trees_agree_on_larger_key_set():
    keys = [f"k{index:03d}".encode() for index in range(40)]

    def app(tree):
        for index, key in enumerate(keys):
            yield from tree.insert(key, index + 1)
        values = []
        for key in keys:
            values.append((yield from tree.search(key)))
        return values

    for name in BACKENDS:
        env, tree = radix_tree(name, capacity_nodes=8192)
        assert run(env, app(tree)) == list(range(1, 41)), name


def test_clio_search_uses_one_offload_rtt_per_level():
    cluster = ClioCluster(mn_capacity=512 * MB)
    register_chase_offload(cluster.mn.extend_path)
    tree = ClioRadixTree(cluster.cn(0).process("mn0").thread())

    def app():
        yield from tree.setup(capacity_nodes=1024)
        yield from tree.insert(b"abc", 7)
        before = cluster.mn.extend_path.invocations
        assert (yield from tree.search(b"abc")) == 7
        return cluster.mn.extend_path.invocations - before

    # Exactly one pointer-chase invocation per key byte.
    assert run(cluster.env, app()) == 3


def test_rdma_search_pays_rtt_per_node():
    """RDMA walks node-by-node over the network — many more verb ops than
    Clio's one offload call per level."""
    env, tree = radix_tree("rdma")
    node = tree.memory

    def app():
        for index in range(8):
            yield from tree.insert(bytes([65 + index]) + b"xy", index + 1)
        ops_before = node.ops
        value = yield from tree.search(b"Hxy")
        assert value == 8
        return node.ops - ops_before

    # Walking to the 8th sibling plus two levels: well above 3 reads.
    assert run(env, app()) >= 8
