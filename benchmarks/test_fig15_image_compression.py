"""Figure 15: image-compression runtime per client vs number of clients.

Paper result: Clio's per-client runtime stays (nearly) flat as clients
are added, because isolation costs nothing at the MN (a PID per process).
RDMA does not scale: every client must register its own MR for protected
access, and MR registration + MR-cache pressure grow with the client
count.
"""

from bench_common import GB, backend_params, make_cluster, mean

from dataclasses import replace

from repro.analysis.report import render_series
from repro.apps.image_compression import ImageCompressionClient
from repro.baselines.api import ClioMemory, create_backend
from repro.params import ClioParams
from repro.sim.rng import RandomStream

CLIENTS = [1, 2, 4, 8]
OPERATIONS = 2
IMAGE_SIDE = 32


def clio_memories(num_clients: int) -> list:
    """One Clio process per client, spread over four CNs."""
    cluster = make_cluster(num_cns=4, mn_capacity=2 * GB)
    return [ClioMemory(cluster.cn(index % 4).process("mn0").thread())
            for index in range(num_clients)]


def rdma_memories(num_clients: int) -> list:
    """Every client on one RDMA host, each registering its own MR (and
    QP): with many clients a small MR cache thrashes."""
    params = ClioParams.prototype()
    params = replace(params, rdma=replace(params.rdma, mr_cache_entries=4,
                                          pte_cache_entries=64))
    node = create_backend("rdma", backend_params(params,
                                                 dram_capacity=2 * GB))
    return [node] * num_clients


def runtime_us(memories: list, stream: str) -> float:
    """Mean per-client runtime (allocation, upload and the workload), one
    client per memory, all running at once."""
    env = memories[0].env
    rng = RandomStream(11, stream)
    runtimes = []

    def workload(client):
        started = env.now
        yield from client.setup()    # allocation + upload
        yield from client.run_workload(OPERATIONS)
        runtimes.append(env.now - started)

    env.run(until=env.all_of([
        env.process(workload(ImageCompressionClient(
            memory, rng.fork(f"c{index}"), image_side=IMAGE_SIDE, slots=2)))
        for index, memory in enumerate(memories)]))
    return mean(runtimes) / 1000


def run_experiment():
    return {
        "clio": [runtime_us(clio_memories(n), "fig15") for n in CLIENTS],
        "rdma": [runtime_us(rdma_memories(n), "fig15-rdma")
                 for n in CLIENTS],
    }


def test_fig15_image_compression(benchmark):
    results = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    print()
    print(render_series(
        "Figure 15: image compression runtime per client (us)",
        "clients", CLIENTS,
        {"Clio": [round(v, 1) for v in results["clio"]],
         "RDMA": [round(v, 1) for v in results["rdma"]]}))

    clio, rdma = results["clio"], results["rdma"]

    # RDMA's runtime grows faster than Clio's with the client count.
    clio_growth = clio[-1] / clio[0]
    rdma_growth = rdma[-1] / rdma[0]
    assert rdma_growth > clio_growth * 1.15

    # At 8 clients RDMA is worse in absolute terms too.
    assert rdma[-1] > clio[-1]
