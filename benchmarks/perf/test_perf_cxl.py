"""CXL-vs-Clio benchmark: the trade-off the load/store backend exists
to make measurable, plus the multi-tenant isolation bars.

Three cells land in ``BENCH_perf.json`` under the ``cxl`` section
(schema-checked by ``perf_common.validate_section``):

* **subline_read** — a 64B hot read through the MemoryBackend protocol.
  CXL issues one cache-line load (decode + hop + device read, no RPC
  framing) and must beat Clio's full request/response round trip;
* **pooled_churn** — two clients hammer 1KB writes at the same shared
  buffer.  The CXL hosts ping-pong dirty lines, paying a back-
  invalidation recall per touched line; Clio's RPC writes have no
  coherence protocol to pay, so CXL must *lose* this one.  Winning both
  cells would mean the coherence model is broken;
* **noisy_neighbor** — the verify-harness QoS scenario, shaped and
  unshaped: per-tenant egress shaping holds the victim's p99 inflation
  to <= 1.5x while the unshaped run documents the >= 2x blow-up the
  shaper exists to prevent.

All latencies are *simulated* nanoseconds (deterministic), so the
asserted bars are safe on shared CI runners; ``wall_s``/``events`` carry
the engine-throughput trajectory.  Set ``REPRO_BENCH_TINY=1`` (the CI
qos-smoke job does) to shrink the workload.
"""

from __future__ import annotations

import json
import os
import time

from perf_common import BENCH_FILE, record, validate_section

from repro.analysis.stats import median, p99
from repro.baselines.api import create_backend
from repro.baselines.cxl import CXLPool
from repro.cluster import ClioCluster
from repro.params import ClioParams
from repro.sim import Environment
from repro.verify import run_scenario, scenario

TINY = bool(os.environ.get("REPRO_BENCH_TINY"))

KB = 1 << 10
MB = 1 << 20

READ_OPS = 80 if TINY else 400
CHURN_OPS = 40 if TINY else 200
SEED = 7


def _subline_read_cell(backend_name: str) -> dict:
    """64B reads at one hot offset, per-op latency from the protocol."""
    backend = create_backend(backend_name, seed=SEED)
    latencies: list[int] = []

    def app():
        yield from backend.setup()
        handle = yield from backend.alloc(1 * MB)
        yield from backend.write(handle, 0, b"\x5c" * 64)
        for _ in range(READ_OPS):
            _, latency = yield from backend.read(handle, 0, 64)
            latencies.append(latency)
        yield from backend.free(handle)

    start = time.perf_counter()
    backend.run_process(app())
    wall_s = time.perf_counter() - start
    return {
        "backend": backend_name,
        "ops": READ_OPS,
        "read_p50_ns": round(median(latencies)),
        "read_p99_ns": round(p99(latencies)),
        "wall_s": round(wall_s, 4),
        "events": backend.env._seq,
    }


def _cxl_churn_cell() -> dict:
    """Two hosts ping-pong 1KB stores on one shared region."""
    env = Environment()
    pool = CXLPool(env, ClioParams.prototype(), capacity=64 * MB)
    hosts = [pool.host("h0"), pool.host("h1")]
    latencies: list[int] = []
    shared = {}

    def owner():
        shared["region"] = yield from hosts[0].alloc(64 * KB)

    env.run(until=env.process(owner()))

    def client(host, stride):
        payload = bytes([stride]) * 1024
        for index in range(CHURN_OPS):
            offset = ((index % 8) * 1024)
            latency = yield from host.store(shared["region"], offset,
                                            payload)
            latencies.append(latency)

    start = time.perf_counter()
    procs = [env.process(client(host, index))
             for index, host in enumerate(hosts)]
    env.run(until=env.all_of(procs))
    wall_s = time.perf_counter() - start
    return {
        "backend": "cxl",
        "clients": len(hosts),
        "ops": len(latencies),
        "write_p50_ns": round(median(latencies)),
        "write_p99_ns": round(p99(latencies)),
        "wall_s": round(wall_s, 4),
        "events": env._seq,
    }


def _clio_churn_cell() -> dict:
    """Two CN threads issue 1KB RPC writes to regions on one MN."""
    cluster = ClioCluster(params=ClioParams.prototype(), seed=SEED,
                          num_cns=2, mn_capacity=256 * MB)
    env = cluster.env
    latencies: list[int] = []

    def client(cn_index):
        thread = cluster.cn(cn_index).process("mn0").thread()
        va = yield from thread.ralloc(64 * KB)
        yield from thread.rwrite(va, b"\0" * 64)        # fault the page in
        payload = bytes([cn_index + 1]) * 1024
        for index in range(CHURN_OPS):
            offset = ((index % 8) * 1024)
            begin = env.now
            yield from thread.rwrite(va + offset, payload)
            latencies.append(env.now - begin)

    start = time.perf_counter()
    procs = [env.process(client(index)) for index in range(2)]
    cluster.run(until=env.all_of(procs))
    wall_s = time.perf_counter() - start
    return {
        "backend": "clio",
        "clients": 2,
        "ops": len(latencies),
        "write_p50_ns": round(median(latencies)),
        "write_p99_ns": round(p99(latencies)),
        "wall_s": round(wall_s, 4),
        "events": env._seq,
    }


def _noisy_cell(shaping: bool) -> dict:
    # Deliberately NOT shrunk under TINY: a shorter victim window
    # samples the pre-convergence burst and inflates the shaped p99
    # past the bar.  ~8s wall total is fine for the smoke job.
    start = time.perf_counter()
    result = run_scenario(
        scenario("qos-shaped" if shaping else "qos-unshaped"), seed=SEED)
    wall_s = time.perf_counter() - start
    # Oracle and invariants clean AND the scenario's isolation bar held
    # (shaped <= 1.5x; unshaped >= 2x, or it exerts no pressure).
    assert result.problems() == []
    extras = result.extras
    return {
        "shaping": shaping,
        "victim_base_p99_ns": extras["victim_base_p99_ns"],
        "victim_noisy_p99_ns": extras["victim_noisy_p99_ns"],
        "inflation": extras["victim_p99_inflation"],
        "aggressor_ops": extras["aggressor_ops"],
        "wall_s": round(wall_s, 4),
        "events": extras["events"],
    }


def test_cxl_subline_read_beats_clio():
    cells = {name: _subline_read_cell(name) for name in ("cxl", "clio")}
    assert cells["cxl"]["read_p50_ns"] < cells["clio"]["read_p50_ns"], cells
    for name, cell in cells.items():
        record("cxl", f"subline_read.{name}", cell)


def test_cxl_pooled_churn_loses_to_clio():
    cells = {"cxl": _cxl_churn_cell(), "clio": _clio_churn_cell()}
    assert cells["cxl"]["write_p99_ns"] > cells["clio"]["write_p99_ns"], cells
    for name, cell in cells.items():
        record("cxl", f"pooled_churn.{name}", cell)


def test_noisy_neighbor_isolation_bars():
    shaped = _noisy_cell(shaping=True)
    unshaped = _noisy_cell(shaping=False)
    record("cxl", "noisy_neighbor.shaped", shaped)
    record("cxl", "noisy_neighbor.unshaped", unshaped)


def test_cxl_section_schema_validates():
    with open(BENCH_FILE) as handle:
        data = json.load(handle)
    problems = validate_section(data, "cxl")
    assert not problems, problems
