"""Exact simulated timings of the section 6 apps on Clio and on RDMA.

Figures 15 and 16 compare these apps across backends only by shape; the
values here pin each backend's number so a refactor of an app, or of a
backend's verbs, cannot move one silently.  Re-pin a row only when a
change is meant to move it, and list old and new values with it.
"""

import pytest

from repro.sim.rng import RandomStream

from tests.apps.backends import BACKENDS, image_clients, radix_tree

#: search latency (ns) of every fourth of 24 keys, after inserting all
RADIX_SEARCH_NS = {
    "clio": [9508, 11017, 12684, 14206, 9893, 11354],
    "rdma": [55473, 17342, 25810, 33925, 11195, 19398],
}

#: per-client runtime (ns) of setup plus two compress/decompress rounds,
#: with one and with two clients running at once
IMAGE_RUNTIMES_NS = {
    "clio": {1: [42020], 2: [42063, 42978]},
    "rdma": {1: [38914], 2: [38849, 50078]},
}


def radix_search_ns(name: str) -> list[int]:
    env, tree = radix_tree(name, capacity_nodes=256)
    keys = [b"%02x-k" % index for index in range(24)]
    latencies = []

    def app():
        for index, key in enumerate(keys):
            yield from tree.insert(key, index + 1)
        for index in range(0, len(keys), 4):
            start = env.now
            value = yield from tree.search(keys[index])
            assert value == index + 1
            latencies.append(env.now - start)

    env.run(until=env.process(app()))
    return latencies


def image_runtimes_ns(name: str, count: int) -> list[int]:
    env, clients = image_clients(name, count, RandomStream(7, "photos"),
                                 image_side=32, slots=2)
    runtimes = []

    def workload(client):
        start = env.now
        yield from client.setup()
        yield from client.run_workload(2)
        runtimes.append(env.now - start)

    env.run(until=env.all_of([env.process(workload(client))
                              for client in clients]))
    return runtimes


@pytest.mark.parametrize("name", BACKENDS)
def test_radix_search_latencies_are_pinned(name):
    assert radix_search_ns(name) == RADIX_SEARCH_NS[name]


@pytest.mark.parametrize("count", [1, 2])
@pytest.mark.parametrize("name", BACKENDS)
def test_image_compression_runtimes_are_pinned(name, count):
    assert image_runtimes_ns(name, count) == IMAGE_RUNTIMES_NS[name][count]
