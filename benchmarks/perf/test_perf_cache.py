"""The repro.cache sweep: simulated throughput, caching on vs off.

A zipfian multi-client read/write mix over ONE shared region, swept
across hot-set sizes (fits-in-cache vs thrashes) x write ratios x
write-through/write-back, reporting *simulated* ops/sec — operations
per simulated nanosecond, a deterministic number.  The cache-off
baseline runs the identical op stream straight at the MN; the delta
isolates what locality buys: a ~300 ns DRAM hit instead of a full
network round trip.

The acceptance bar is the ISSUE's: the hot-set read sweep must clear
>= 2x simulated ops/sec over cache-off at >= 90% hit rate.  Write-heavy
cells are *expected* to give the win back — write-through pays the MN
round trip per set, and cross-CN sharing turns writes into recall
traffic — the sweep shows the crossover, not a free lunch.

Results land in ``BENCH_perf.json`` under the ``cache`` section
(schema-checked by ``perf_common.validate_section``).  Set
``REPRO_BENCH_TINY=1`` (the CI bench-smoke job does) to shrink the grid.
"""

from __future__ import annotations

import os

from perf_common import record

from repro.cluster import ClioCluster
from repro.params import KB, MB
from repro.sim.rng import RandomStream, ZipfTable
from repro.workloads import zipfian_keys

TINY = bool(os.environ.get("REPRO_BENCH_TINY"))

_PID = 9701
IO = 64
LINE = 4 * KB
SLOTS_PER_LINE = LINE // IO
CAPACITY_LINES = 16

POLICIES = ("back",) if TINY else ("through", "back")
HOT_LINES = (8,) if TINY else (8, 64)        # 8 fits in 16; 64 thrashes
WRITE_FRACS = (0.0,) if TINY else (0.0, 0.1, 0.5)
OPS = 120 if TINY else 400                   # measured ops per client
NUM_CLIENTS = 2


def _run_cell(hot_lines: int, write_frac: float, policy: str | None,
              seed: int = 0) -> dict:
    """One deterministic run; ``policy=None`` is the cache-off baseline."""
    cluster = ClioCluster(seed=seed, num_cns=NUM_CLIENTS,
                          mn_capacity=256 * MB)
    if policy is not None:
        cluster.enable_caching(policy=policy, line_bytes=LINE,
                               capacity_lines=CAPACITY_LINES)
    env = cluster.env
    region = hot_lines * LINE
    num_keys = hot_lines * SLOTS_PER_LINE
    table = ZipfTable(num_keys, 0.99)
    threads = [cluster.cn(i).process("mn0", pid=_PID).thread()
               for i in range(NUM_CLIENTS)]
    holder = {}

    def setup():
        holder["va"] = yield from threads[0].ralloc(region)
        # Warmup: touch every hot line once so the measured phase sees
        # a populated cache, not cold-fill latency.
        for line in range(hot_lines):
            yield from threads[0].rread(holder["va"] + line * LINE, IO)

    cluster.run(until=env.process(setup()))
    va = holder["va"]
    rng = RandomStream(seed, f"bench/cache/{hot_lines}/{write_frac}")
    start_ns = env.now
    before = [(cn.cache.hits, cn.cache.misses) if cn.cache else (0, 0)
              for cn in cluster.cns]

    def client(index):
        crng = rng.fork(f"client{index}")
        keys = zipfian_keys(crng, num_keys, table=table)
        payload = bytes((index + 1,)) * IO
        for _ in range(OPS):
            offset = next(keys) * IO
            if crng.chance(write_frac):
                yield from threads[index].rwrite(va + offset, payload)
            else:
                yield from threads[index].rread(va + offset, IO)

    procs = [env.process(client(i)) for i in range(NUM_CLIENTS)]
    cluster.run(until=env.all_of(procs))
    elapsed_ns = env.now - start_ns
    out = {"sim_ops_per_sec": round(NUM_CLIENTS * OPS * 1e9 / elapsed_ns)}
    if policy is not None:
        hits = sum(cn.cache.hits - b[0]
                   for cn, b in zip(cluster.cns, before))
        misses = sum(cn.cache.misses - b[1]
                     for cn, b in zip(cluster.cns, before))
        out["hit_rate"] = round(hits / max(1, hits + misses), 4)
    return out


def test_cache_sweep_speedup():
    sweep: dict[str, dict] = {}
    for hot_lines in HOT_LINES:
        for write_frac in WRITE_FRACS:
            off = _run_cell(hot_lines, write_frac, policy=None)
            for policy in POLICIES:
                on = _run_cell(hot_lines, write_frac, policy=policy)
                cell = {
                    "policy": policy,
                    "hot_lines": hot_lines,
                    "write_frac": write_frac,
                    "ops": NUM_CLIENTS * OPS,
                    "sim_ops_per_sec_off": off["sim_ops_per_sec"],
                    "sim_ops_per_sec_on": on["sim_ops_per_sec"],
                    "speedup": round(on["sim_ops_per_sec"]
                                     / off["sim_ops_per_sec"], 3),
                    "hit_rate": on["hit_rate"],
                }
                name = (f"{policy}_h{hot_lines}_"
                        f"w{int(write_frac * 100):02d}")
                sweep[name] = cell
                print(f"{name}: {cell['speedup']:.2f}x at "
                      f"{cell['hit_rate']:.1%} hits")
    for name, cell in sweep.items():
        record("cache", name, cell)

    # Acceptance (the ISSUE bar): the zipfian hot-set read sweep clears
    # >= 2x simulated ops/sec over cache-off at >= 90% hit rate.
    hot = HOT_LINES[0]
    for policy in POLICIES:
        best = sweep[f"{policy}_h{hot}_w00"]
        assert best["speedup"] >= 2.0, best
        assert best["hit_rate"] >= 0.90, best
    # Worst-corner floor: even thrashing + write-heavy + cross-CN
    # sharing (every write a directory transaction, every hit soon
    # recalled) stays a bounded slowdown, not a collapse.
    for cell in sweep.values():
        assert cell["speedup"] >= 0.25, cell
