"""Ablation: congestion/incast control on vs off under MN incast.

Design claim (section 4.4): CN-side delay-AIMD plus the incast window
keep the MN's downlink queue bounded, so tail latency stays controlled
when many clients blast one board.  Disabling the control (huge static
windows) lets the queue grow, inflating tails and triggering retries.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from dataclasses import replace

from bench_common import KB, MB, make_cluster, p99, median, run_app

from repro.analysis.report import render_table
from repro.params import ClioParams

CLIENTS = 12
OPS_PER_CLIENT = 60
SIZE = 4 * KB


def run_incast(controlled: bool) -> dict:
    base = ClioParams.prototype()
    if not controlled:
        clib = replace(base.clib, cwnd_init=4096.0, cwnd_max=4096.0,
                       cwnd_min=4096.0, iwnd_bytes=1 << 30,
                       target_rtt_ns=10 ** 9)
        base = replace(base, clib=clib)
    cluster = make_cluster(num_cns=4, mn_capacity=2 << 30, params=base,
                           page_size=64 * KB)
    ready = []

    def setup_all():
        for index in range(CLIENTS):
            thread = cluster.cn(index % 4).process("mn0").thread()
            va = yield from thread.ralloc(8 * MB)
            for offset in range(0, 8 * MB, 64 * KB):
                yield from thread.rwrite(va + offset, b"\0" * 64)
            ready.append((thread, va))

    run_app(cluster, setup_all())
    latencies = []
    failures = [0]

    def reap(thread, start, handle):
        # rpoll reports a per-op failure (retries exhausted) in the
        # Completion instead of raising.
        (completion,) = yield from thread.rpoll([handle])
        if completion.ok:
            latencies.append(cluster.env.now - start)
        else:
            failures[0] += 1

    def client(thread, va):
        # Async burst: every client keeps a deep window of 4KB writes in
        # flight — the incast pattern the CN-side control exists for.
        outstanding = []
        for index in range(OPS_PER_CLIENT):
            offset = (index * 64 * KB) % (8 * MB - SIZE)
            start = cluster.env.now
            handle = yield from thread.rwrite_async(va + offset, b"i" * SIZE)
            outstanding.append((start, handle))
            if len(outstanding) >= 16:
                yield from reap(thread, *outstanding.pop(0))
        for start, handle in outstanding:
            yield from reap(thread, start, handle)

    procs = [cluster.env.process(client(thread, va))
             for thread, va in ready]
    cluster.run(until=cluster.env.all_of(procs))
    transports = [cluster.cn(index).transport for index in range(4)]
    return {
        "median_us": median(latencies) / 1000,
        "p99_us": p99(latencies) / 1000,
        "retries": sum(t.total_retries for t in transports),
        "failures": failures[0],
    }


def run_experiment():
    return {
        "controlled": run_incast(controlled=True),
        "uncontrolled": run_incast(controlled=False),
    }


def test_ablation_congestion(benchmark):
    results = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    on, off = results["controlled"], results["uncontrolled"]
    print()
    print(render_table(
        "Ablation: 12-client async 4KB-write incast to one MN",
        ["config", "median us", "p99 us", "retries", "failures"],
        [["congestion control ON", on["median_us"], on["p99_us"],
          on["retries"], on["failures"]],
         ["congestion control OFF", off["median_us"], off["p99_us"],
          off["retries"], off["failures"]]]))

    # Without control, the unbounded queue triggers a retry storm...
    assert off["retries"] > on["retries"] * 5 + 10

    # ...and most requests exhaust their retries and fail outright (the
    # surviving ops' latency is survivorship-biased and meaningless).
    assert off["failures"] > CLIENTS * OPS_PER_CLIENT // 2

    # With control every operation completes; latency reflects honest
    # closed-loop queueing at CLib rather than network collapse.
    assert on["failures"] == 0
