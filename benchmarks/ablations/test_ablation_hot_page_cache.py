"""Ablation: CN-side hot-page caching on vs off (repro.cache).

A zipfian two-client read/write mix over ONE shared region, swept
across hot-set sizes (fits-in-cache vs thrashes) x write ratios x
write-through/write-back, comparing *simulated* ops/sec — a
deterministic number.  The cache-off baseline runs the identical op
stream straight at the MN; the delta isolates what locality buys: a
~300 ns DRAM hit instead of a full network round trip.

The bar: the hot-set read cells clear >= 2x over cache-off at >= 90%
hit rate.  Write-heavy cells are *expected* to give the win back —
write-through pays the MN round trip per set, and cross-CN sharing
turns writes into recall traffic — the sweep shows the crossover, not a
free lunch.
"""

import sys
from dataclasses import replace
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from bench_common import KB, MB, make_cluster, run_app

from repro.analysis.report import render_table
from repro.params import CacheParams, ClioParams
from repro.sim.rng import RandomStream, ZipfTable
from repro.workloads import zipfian_keys

PID = 9701
IO = 64
LINE = 4 * KB
CAPACITY_LINES = 16
POLICIES = ("through", "back")
HOT_LINES = (8, 64)             # 8 fits in 16; 64 thrashes
WRITE_FRACS = (0.0, 0.1, 0.5)
OPS = 400                       # measured ops per client
NUM_CLIENTS = 2
SEED = 0


def run_cell(hot_lines: int, write_frac: float, policy=None):
    """(simulated ops/sec, hit rate); ``policy=None`` is cache-off."""
    params = ClioParams.prototype()
    if policy is not None:
        params = replace(params, cache=CacheParams(
            policy=policy, line_bytes=LINE, capacity_lines=CAPACITY_LINES))
    cluster = make_cluster(num_cns=NUM_CLIENTS, mn_capacity=256 * MB,
                           seed=SEED, params=params,
                           layers=("caching",) if policy is not None else ())
    env = cluster.env
    num_keys = hot_lines * LINE // IO
    table = ZipfTable(num_keys, 0.99)
    threads = [cluster.cn(i).process("mn0", pid=PID).thread()
               for i in range(NUM_CLIENTS)]

    def setup():
        va = yield from threads[0].ralloc(hot_lines * LINE)
        # Warmup: touch every hot line once so the measured phase sees
        # a populated cache, not cold-fill latency.
        for line in range(hot_lines):
            yield from threads[0].rread(va + line * LINE, IO)
        return va

    va = run_app(cluster, setup())
    rng = RandomStream(SEED, f"bench/cache/{hot_lines}/{write_frac}")
    started = env.now
    caches = [cn.cache for cn in cluster.cns if cn.cache]

    def hits_and_lookups():
        return (sum(c.hits for c in caches),
                sum(c.hits + c.misses for c in caches))

    hits_before, lookups_before = hits_and_lookups()

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

    cluster.run_all(env.process(client(i)) for i in range(NUM_CLIENTS))
    ops_per_sec = round(NUM_CLIENTS * OPS * 1e9 / (env.now - started))
    hits, lookups = hits_and_lookups()
    return ops_per_sec, round((hits - hits_before)
                              / max(1, lookups - lookups_before), 4)


def run_experiment():
    """{"back_h8_w00": (speedup over cache-off, hit rate), ...}"""
    results = {}
    for hot_lines in HOT_LINES:
        for write_frac in WRITE_FRACS:
            off, _ = run_cell(hot_lines, write_frac)
            for policy in POLICIES:
                on, hit_rate = run_cell(hot_lines, write_frac, policy)
                name = f"{policy}_h{hot_lines}_w{int(write_frac * 100):02d}"
                results[name] = (round(on / off, 3), hit_rate)
    return results


def test_ablation_hot_page_cache(benchmark):
    results = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    print()
    print(render_table(
        "Ablation: hot-page cache on/off, simulated ops/sec speedup",
        ["policy_hot_write%", "speedup", "hit rate"],
        [[name, speedup, hit_rate]
         for name, (speedup, hit_rate) in results.items()], width=18))

    # The zipfian hot-set read cells clear >= 2x at >= 90% hit rate.
    for policy in POLICIES:
        speedup, hit_rate = results[f"{policy}_h{HOT_LINES[0]}_w00"]
        assert speedup >= 2.0
        assert hit_rate >= 0.90
    # Worst-corner floor: even thrashing + write-heavy + cross-CN
    # sharing (every write a directory transaction, every hit soon
    # recalled) stays a bounded slowdown, not a collapse.
    for speedup, _ in results.values():
        assert speedup >= 0.25
