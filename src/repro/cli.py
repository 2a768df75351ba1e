"""Command-line experiment runner: ``python -m repro <command>``.

Quick, scriptable access to the common experiments without writing a
simulation program:

* ``latency``  — end-to-end read/write latency distribution on Clio;
* ``goodput``  — end-to-end goodput for a thread count / request size;
* ``compare``  — one-op latency across Clio and every baseline;
* ``alloc``    — VA/PA allocation costs vs RDMA MR registration;
* ``ycsb``     — Clio-KV under a YCSB mix;
* ``chaos``    — a fault-injection scenario with invariant checks;
* ``verify``   — the runtime correctness stack: shadow oracle, invariant
  sweeps, and linearizability checks over recorded histories;
* ``metrics``  — an instrumented run: metrics dashboard, span summary,
  and an optional Chrome/Perfetto trace export.

Every command prints a table via :mod:`repro.analysis.report` and returns
a process exit code of 0 on success.
"""

from __future__ import annotations

import argparse
from typing import Optional, Sequence

from repro.analysis.report import render_table
from repro.analysis.stats import LatencyRecorder, percentile, rate_gbps
from repro.cluster import ClioCluster
from repro.params import BACKEND_NAMES, GB, KB, MB, ClioParams

#: ``--profile`` name -> parameter bundle.
PROFILES = {
    "prototype": ClioParams.prototype,
    "asic": ClioParams.asic_projection,
    "cloudlab": ClioParams.cloudlab,
}


def _parse_size(text: str) -> int:
    """'64', '4KB', '16MB', '2GB' -> bytes; anything else, or a size
    under one byte, is a usage error."""
    number, factor = text.strip().upper(), 1
    for suffix, scale in (("GB", GB), ("MB", MB), ("KB", KB), ("B", 1)):
        if number.endswith(suffix):
            number, factor = number[:-len(suffix)], scale
            break
    try:
        size = int(float(number) * factor)
    except (ValueError, OverflowError):
        size = 0
    if size < 1:
        raise argparse.ArgumentTypeError(
            f"size must be a positive byte count like 64, 4KB or 16MB, "
            f"got {text!r}")
    return size


#: Each ``goodput`` thread writes in one region of this many bytes.
GOODPUT_REGION = 8 * MB


def _goodput_size(text: str) -> int:
    """A ``goodput`` write size: a byte count under :data:`GOODPUT_REGION`."""
    size = _parse_size(text)
    if size >= GOODPUT_REGION:
        raise argparse.ArgumentTypeError(
            f"size must be under the {GOODPUT_REGION // MB}MB region each "
            f"thread writes in, got {text!r}")
    return size


def _count(text: str) -> int:
    """A count of ops, threads, keys, clients, boards or ToRs: a positive
    integer, or a usage error."""
    if not text.isdigit() or int(text) < 1:
        raise argparse.ArgumentTypeError(
            f"must be a positive count, got {text!r}")
    return int(text)


def _interval(text: str) -> int:
    """A sampling interval in us: a non-negative integer (0 = off), or a
    usage error."""
    if not text.isdigit():
        raise argparse.ArgumentTypeError(
            f"must be a non-negative integer, got {text!r}")
    return int(text)


def _profile(name: str) -> ClioParams:
    return PROFILES[name]()


def _backend_names(text: str) -> tuple[str, ...]:
    """'all' or a comma list of :data:`BACKEND_NAMES` -> the names."""
    if text == "all":
        return BACKEND_NAMES
    names = tuple(name.strip() for name in text.split(","))
    unknown = [name for name in names if name not in BACKEND_NAMES]
    if unknown:
        raise argparse.ArgumentTypeError(
            f"unknown backends {unknown}; choose from "
            f"{', '.join(BACKEND_NAMES)}")
    return names


# -- commands ----------------------------------------------------------------------


def cmd_latency(args) -> int:
    from repro.baselines.api import sample_latencies

    recorder = LatencyRecorder("clio")
    [samples] = sample_latencies("clio", [args.size], args.ops, args.write,
                                 _profile(args.profile), args.seed)
    recorder.extend(samples)
    summary = recorder.summary()
    print(render_table(
        f"Clio {'write' if args.write else 'read'} latency, "
        f"{args.size}B x {args.ops} ops ({args.profile})",
        ["median us", "mean us", "p99 us", "p99.9 us", "max us"],
        [[summary["median_us"], summary["mean_us"], summary["p99_us"],
          summary["p999_us"], summary["max_us"]]]))
    return 0


def cmd_goodput(args) -> int:
    size = args.size
    cluster = ClioCluster(params=_profile(args.profile), seed=args.seed,
                          num_cns=min(4, args.threads), mn_capacity=2 * GB,
                          page_size=64 * KB)
    ready = []

    def setup():
        for index in range(args.threads):
            thread = cluster.cn(index % len(cluster.cns)).process(
                "mn0").thread()
            va = yield from thread.ralloc(GOODPUT_REGION)
            for offset in range(0, GOODPUT_REGION, 64 * KB):
                yield from thread.rwrite(va + offset, b"\0" * 64)
            ready.append((thread, va))

    cluster.run(until=cluster.env.process(setup()))
    payload = b"g" * size
    started = cluster.env.now

    def worker(thread, va):
        outstanding = []
        page = 64 * KB
        for index in range(args.ops):
            offset = (index * page) % (GOODPUT_REGION - size)
            if args.asynchronous:
                handle = yield from thread.rwrite_async(va + offset, payload)
                outstanding.append(handle)
                if len(outstanding) >= 16:
                    yield from thread.rpoll([outstanding.pop(0)])
            else:
                yield from thread.rwrite(va + offset, payload)
        yield from thread.rpoll(outstanding)

    procs = [cluster.env.process(worker(thread, va))
             for thread, va in ready]
    cluster.run(until=cluster.env.all_of(procs))
    total = args.threads * args.ops * size
    goodput = rate_gbps(total, cluster.env.now - started)
    print(render_table(
        f"Clio write goodput ({args.profile})",
        ["threads", "size_B", "mode", "goodput_Gbps"],
        [[args.threads, size,
          "async" if args.asynchronous else "sync", round(goodput, 2)]]))
    return 0


def cmd_compare(args) -> int:
    """The same reads (and, with ``--write``, writes) on every selected
    backend, timed by :func:`repro.baselines.api.sample_latencies`."""
    from repro.baselines.api import sample_latencies

    size = args.size
    params = _profile(args.profile)
    rows = []
    for name in args.backends:
        row = [name]
        for write in (False, True)[:1 + args.write]:
            [samples] = sample_latencies(name, [size], args.ops, write,
                                         params, args.seed)
            row += [round(percentile(samples, 0.5) / 1000, 2),
                    round(percentile(samples, 0.99) / 1000, 2)]
        rows.append(row)

    headers = ["backend", "read median us", "read p99 us"]
    if args.write:
        headers += ["write median us", "write p99 us"]
    print(render_table(
        f"{size}B latency across backends ({args.profile})", headers, rows))
    return 0


def cmd_alloc(args) -> int:
    if args.churn:
        return _cmd_alloc_churn(args)
    from repro.baselines.rdma import RDMAMemoryNode
    from repro.sim import Environment

    size = args.size
    params = _profile(args.profile)
    cluster = ClioCluster(params=params, seed=args.seed,
                          mn_capacity=ALLOC_NODE)
    board = cluster.mn
    timings = {}

    def clio_app():
        start = cluster.env.now
        response = yield from board.slow_path.handle_alloc(pid=1, size=size)
        timings["va_us"] = (cluster.env.now - start) / 1000
        timings["retries"] = response.retries
        start = cluster.env.now
        yield from board.slow_path.single_pa_alloc()
        timings["pa_us"] = (cluster.env.now - start) / 1000

    cluster.run(until=cluster.env.process(clio_app()))

    from dataclasses import replace

    from repro.params import BackendParams

    env = Environment()
    node = RDMAMemoryNode(
        env, replace(params, backend=BackendParams(dram_capacity=ALLOC_NODE)))

    def rdma_app():
        start = env.now
        yield from node.register_mr(size, pinned=True)
        timings["mr_us"] = (env.now - start) / 1000

    env.run(until=env.process(rdma_app()))
    print(render_table(
        f"Allocation costs for {size}B ({args.profile})",
        ["Clio VA us", "retries", "Clio PA us", "RDMA MR reg us"],
        [[timings["va_us"], timings["retries"], timings["pa_us"],
          timings["mr_us"]]]))
    return 0


def _verdict(problems: list, label: str, all_clear: str) -> int:
    """Print every problem (exit 1) or the all-clear line (exit 0)."""
    for problem in problems:
        print(f"{label}: {problem}")
    if not problems:
        print(all_clear)
    return 1 if problems else 0


def _cmd_alloc_churn(args) -> int:
    """Fragmentation/churn scenario across allocation strategies."""
    from repro.verify import ALLOC_STRATEGIES, run_scenario, scenario

    strategies = [args.strategy] if args.strategy else ALLOC_STRATEGIES
    policy = args.va_policy or "first-fit"
    points = [scenario(f"alloc-{strategy}", mix=args.churn, va_policy=policy,
                       ops=args.ops, verify=False)
              for strategy in strategies]
    results = [run_scenario(point, seed=args.seed) for point in points]
    print(render_table(
        f"churn scenario '{args.churn}' (seed {args.seed})",
        ["strategy", "va policy", "ops", "failed", "p50 us", "p99 us",
         "retries", "retry max", "crossings", "frag", "violations",
         "fingerprint"],
        [[strategy, policy, r.extras["ops"], r.extras["failed"],
          round(r.extras["alloc_p50_us"], 1),
          round(r.extras["alloc_p99_us"], 1), r.extras["retries"],
          r.extras["retry_max"], r.extras["slow_crossings"],
          r.extras["fragmentation"], len(r.violations),
          r.extras["fingerprint"][:12]]
         for strategy, r in zip(strategies, results)]))
    problems = [problem for r in results for problem in r.problems()]
    return _verdict(problems, "VIOLATION",
                    f"churn: {len(results)} strategies clean")


def cmd_ycsb(args) -> int:
    from repro.apps.kv_store import ClioKV, register_kv_offload
    from repro.sim.rng import RandomStream
    from repro.workloads.ycsb import YCSB_WORKLOADS, YCSBWorkload

    cluster = ClioCluster(params=_profile(args.profile), seed=args.seed,
                          num_cns=2, mn_capacity=2 * GB)
    register_kv_offload(cluster.mn.extend_path, buckets=4 * args.keys)
    kv = ClioKV(cluster.cn(0).process("mn0").thread())
    workload = YCSBWorkload(YCSB_WORKLOADS[args.workload],
                            RandomStream(args.seed, "cli"),
                            num_keys=args.keys, value_size=1024)
    recorder = LatencyRecorder("ycsb")

    def app():
        for key, value in workload.load_phase():
            yield from kv.put(key, value)
        for op in workload.operations(args.ops):
            start = cluster.env.now
            if op[0] == "get":
                yield from kv.get(op[1])
            else:
                yield from kv.put(op[1], op[2])
            recorder.add(cluster.env.now - start)

    cluster.run(until=cluster.env.process(app()))
    summary = recorder.summary()
    print(render_table(
        f"Clio-KV YCSB-{args.workload}: {args.keys} keys, {args.ops} ops "
        f"({args.profile})",
        ["median us", "mean us", "p99 us"],
        [[summary["median_us"], summary["mean_us"], summary["p99_us"]]]))
    return 0


def cmd_chaos(args) -> int:
    from repro.verify import run_scenario, scenario

    sizes = dict(ops=args.ops, verify=args.cache)
    if args.cache:
        # Write-back, and a small shared region to keep the workers on
        # each other's lines.
        sizes.update(cached="back", region_bytes=64 * KB)
    point = scenario("chaos", schedule=args.scenario, **sizes)
    result = run_scenario(point, seed=args.seed)
    extras = result.extras
    statuses = [op[-1] for op in extras["ops"]]
    ok = statuses.count("ok")
    print(render_table(
        f"chaos: {args.scenario} (seed {args.seed})",
        ["scenario", "finished", "ops ok", "ops failed", "failure kinds",
         "faults applied"],
        [[args.scenario, "yes" if extras["finished"] else "NO", ok,
          len(statuses) - ok, ",".join(sorted(set(statuses) - {"ok"})) or "-",
          len(extras["faults"])]]))
    tput = extras["recovery"]
    if tput is not None:
        print(render_table(
            "crash recovery (ops/s before crash vs after restart)",
            ["pre ops/s", "post ops/s", "recovery"],
            [[round(tput["pre_ops_per_sec"]), round(tput["post_ops_per_sec"]),
              f"{tput['recovery_ratio']:.1%}"]]))
    if "cache" in extras:
        directory = extras["cache"]["dir"]
        nodes = [c for n, c in extras["cache"].items() if n != "dir"]
        print(render_table(
            "cache coherence under faults",
            ["hits", "misses", "recalls", "downgrades", "inval retries",
             "flush retries"],
            [[sum(c["hits"] for c in nodes), sum(c["misses"] for c in nodes),
              directory["recalls"], directory["downgrades"],
              directory["inval_retries"],
              sum(c["flush_retries"] for c in nodes)]]))
    return _verdict(result.problems(), "INVARIANT VIOLATED",
                    "invariants: all hold")


def cmd_verify(args) -> int:
    """Run the correctness-checking stack end to end (docs/correctness.md).

    A loop over the suites table: the ``core`` rows (sync unit, Clio-KV,
    batched YCSB) and the ``chaos`` row always run; ``cache``, ``alloc``,
    ``rack`` and ``qos`` add their rows when named.  Exit 1 on any
    violation or failed bar, with the offending telemetry spans printed
    for context.
    """
    from repro.verify import SUITES, run_scenario, spans_near

    # Not argparse choices: Python 3.11 rejects an empty nargs="*" list.
    unknown = sorted(set(args.suites) - set(SUITES))
    if unknown:
        raise SystemExit(f"unknown suites {unknown}; "
                         f"choose from {', '.join(SUITES)}")
    sizes = argparse.Namespace(ops=args.ops, clients=args.clients,
                               crash=not args.no_crash, chaos=args.scenario)
    failures: list[str] = []
    rows = []
    for suite, build in SUITES.items():
        if suite not in ("core", "chaos", *args.suites):
            continue
        for point in build(sizes):
            result = run_scenario(point, seed=args.seed)
            if result.violations:
                # Runs are deterministic: replay traced for span context.
                result = run_scenario(point, seed=args.seed, trace=True)
            problems = result.problems()
            undecided = result.lin is not None and result.lin.ok is None
            status = ("VIOLATED" if problems else
                      "undecided" if undecided else "ok")
            rows.append([result.name, result.history_len,
                         "yes" if (result.lin and result.lin.ok) else
                         ("n/a" if result.lin is None else "NO"),
                         result.report.get("read_mismatches", 0),
                         len(result.violations), status])
            for problem in problems:
                failures.append(problem)
                if result.violations:
                    failures.extend(spans_near(result.tracer,
                                               result.violations[0].at_ns))
    print(render_table(
        f"repro verify (seed {args.seed})",
        ["workload", "history ops", "linearizable", "read mismatches",
         "invariant violations", "verdict"], rows))
    return _verdict(failures, "VIOLATION", "verification: oracle clean, "
                    "invariants hold, histories linearizable")


def cmd_rack(args) -> int:
    """Run the sharded rack tier under a zipfian YCSB with a membership
    event mid-traffic, and report throughput plus tail recovery.

    Exit 1 if the oracle, invariants, or the linearizability check flag
    anything, or if the post-event p99 misses the scenario's recovery
    bar (the rebalance-quality bar).
    """
    from repro.verify import run_scenario, scenario

    script = None if args.scenario == "none" else args.scenario
    point = scenario("rack", boards=args.boards, tors=args.tors,
                     clients=args.clients, ops=args.ops, script=script)
    result = run_scenario(point, seed=args.seed)
    extras = result.extras
    span_s = extras["span_ns"] / 1e9
    ops_per_s = extras["ops_ok"] / span_s if span_s else 0.0
    print(render_table(
        f"rack: {args.boards} boards / {args.tors} ToRs, "
        f"{args.clients} clients, scenario {script or 'none'} "
        f"(seed {args.seed})",
        ["ops ok", "ops attempted", "sim Mops/s", "p99 pre (ns)",
         "p99 post (ns)", "recovery", "migrations", "evictions", "epoch"],
        [[extras["ops_ok"], extras["ops_attempted"],
          f"{ops_per_s / 1e6:.2f}", extras["pre_p99_ns"],
          extras["post_p99_ns"],
          f"{extras['recovery_ratio']:.2f}x" if extras["pre_p99_ns"]
          else "n/a",
          extras["migrations"], extras["evictions"], extras["epoch"]]]))
    return _verdict(result.problems(), "VIOLATION",
                    "rack: oracle clean, history linearizable"
                    + (", tail recovered" if script is not None else ""))


#: DRAM of the one board ``metrics`` instruments.
METRICS_BOARD = 1 * GB
#: DRAM of ``alloc``'s Clio board and of its RDMA node.
ALLOC_NODE = 8 * GB


def _size_bound(args) -> Optional[int]:
    """The largest ``--size`` a command runs.  ``latency``, ``compare``
    and ``metrics``: half the DRAM of the board they build (every
    ``compare`` backend but Clover sizes its memory as Clio's) -- near that,
    a ralloc's VA search outlasts the CN's longest request timeout and
    fails.  The transfer itself is not bounded: an attempt's timeout
    grows with its wire time.  Clover holds a value in its slots, and an
    overwrite keeps the old version's until the new one is in: half of
    them.  ``alloc``: its ``ALLOC_NODE`` nodes.  None for the others."""
    if args.func is cmd_alloc:
        return ALLOC_NODE
    if args.func not in (cmd_latency, cmd_compare, cmd_metrics):
        return None
    params = _profile(args.profile)
    dram = (METRICS_BOARD if args.func is cmd_metrics else
            params.backend.dram_capacity or params.cboard.dram_capacity)
    if args.func is cmd_compare and "clover" in args.backends:
        from repro.baselines.clover import CloverStore

        return min(dram, params.backend.capacity_slots
                   * CloverStore.VALUE_SLOT) // 2
    return dram // 2


def cmd_metrics(args) -> int:
    from repro.telemetry import render_dashboard, write_chrome_trace

    cluster = ClioCluster(params=_profile(args.profile), seed=args.seed,
                          mn_capacity=METRICS_BOARD, layers=("tracing",))
    tracer = cluster.tracer
    if args.interval_us:
        cluster.metrics.start_sampling(cluster.env,
                                       args.interval_us * 1000)
    thread = cluster.cn(0).process("mn0").thread()
    size = args.size
    payload = b"m" * size

    def app():
        va = yield from thread.ralloc(max(size, 4 * MB))
        for _ in range(args.ops):
            yield from thread.rwrite(va, payload)
            yield from thread.rread(va, size)

    cluster.run(until=cluster.env.process(app()))
    cluster.metrics.stop_sampling()
    print(render_dashboard(
        cluster.metrics, tracer,
        title=f"instrumented run: {args.ops}x {size}B write+read "
              f"({args.profile})",
        prefix=args.prefix))
    held = tracer.nbytes
    print(f"tracer: {len(tracer)} records in {held} bytes "
          f"({held / max(1, len(tracer)):.1f} B/record)")
    if args.trace_out:
        write_chrome_trace(args.trace_out, tracer, cluster.metrics)
        print(f"chrome trace written to {args.trace_out} "
              f"(open in chrome://tracing or ui.perfetto.dev)")
    return 0


# -- argument parsing ---------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    import repro
    from repro.alloc import VA_POLICIES
    from repro.verify import (ALLOC_STRATEGIES, CHAOS_SCRIPTS, RACK_SCENARIOS,
                              SUITES)
    from repro.workloads.churn import CHURN_SCENARIOS
    from repro.workloads.ycsb import YCSB_WORKLOADS

    parser = argparse.ArgumentParser(
        prog="repro",
        description="Clio reproduction: command-line experiment runner")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {repro.__version__}")
    parser.add_argument("--profile", default="prototype",
                        choices=tuple(PROFILES),
                        help="parameter profile (default: prototype)")
    parser.add_argument("--seed", type=int, default=0)
    sub = parser.add_subparsers(dest="command", required=True)

    latency = sub.add_parser("latency", help="Clio latency distribution")
    latency.add_argument("--size", default="16", type=_parse_size)
    latency.add_argument("--ops", type=_count, default=2000)
    latency.add_argument("--write", action="store_true")
    latency.set_defaults(func=cmd_latency)

    goodput = sub.add_parser("goodput", help="Clio end-to-end goodput")
    goodput.add_argument("--size", default="1KB", type=_goodput_size)
    goodput.add_argument("--threads", type=_count, default=4)
    goodput.add_argument("--ops", type=_count, default=150)
    goodput.add_argument("--async", dest="asynchronous",
                         action="store_true")
    goodput.set_defaults(func=cmd_goodput)

    compare = sub.add_parser("compare", help="latency across systems")
    compare.add_argument("--size", default="16", type=_parse_size)
    compare.add_argument("--ops", type=_count, default=400)
    compare.add_argument("--backends", default="all", type=_backend_names,
                         help="comma-separated backend names, or 'all' "
                              f"({', '.join(BACKEND_NAMES)})")
    compare.add_argument("--write", action="store_true",
                         help="also time writes (second column pair)")
    compare.set_defaults(func=cmd_compare)

    alloc = sub.add_parser(
        "alloc",
        help="allocation cost comparison, or --churn for the "
             "strategy/fragmentation scenario suite")
    alloc.add_argument("--size", default="64MB", type=_parse_size)
    alloc.add_argument("--churn", default=None,
                       choices=tuple(CHURN_SCENARIOS),
                       help="run a churn scenario across PA strategies")
    alloc.add_argument("--strategy", default=None, choices=ALLOC_STRATEGIES,
                       help="restrict --churn to one PA strategy")
    alloc.add_argument("--va-policy", default=None,
                       choices=tuple(VA_POLICIES),
                       help="VA search policy for --churn")
    alloc.add_argument("--ops", type=_count, default=None,
                       help="override the scenario's allocation count")
    alloc.set_defaults(func=cmd_alloc)

    ycsb = sub.add_parser("ycsb", help="Clio-KV under YCSB")
    ycsb.add_argument("--workload", default="B", type=str.upper,
                      choices=tuple(YCSB_WORKLOADS))
    ycsb.add_argument("--keys", type=_count, default=500)
    ycsb.add_argument("--ops", type=_count, default=500)
    ycsb.set_defaults(func=cmd_ycsb)

    chaos = sub.add_parser("chaos", help="fault-injection scenario")
    chaos.add_argument("--scenario", default="board-crash",
                       choices=tuple(CHAOS_SCRIPTS), help="fault script")
    chaos.add_argument("--ops", type=_count, default=1200,
                       help="operations per worker")
    chaos.add_argument("--cache", action="store_true",
                       help="run with the CN hot-page cache on "
                            "(write-back, one shared region) so faults "
                            "land on cached dirty lines")
    chaos.set_defaults(func=cmd_chaos)

    verify = sub.add_parser(
        "verify",
        help="runtime correctness checks: oracle, invariants, "
             "linearizability (docs/correctness.md)")
    extra_suites = ", ".join(s for s in SUITES if s not in ("core", "chaos"))
    verify.add_argument("suites", nargs="*", metavar="SUITE",
                        help="extra suites to run beside the core and "
                             f"chaos rows: {extra_suites}")
    verify.add_argument("--ops", type=_count, default=30,
                        help="atomic/KV ops per client (chaos runs 10x)")
    verify.add_argument("--clients", type=_count, default=3,
                        help="CNs hammering the shared atomic word")
    verify.add_argument("--scenario", default="board-crash",
                        choices=tuple(CHAOS_SCRIPTS),
                        help="chaos fault script to run under the oracle")
    verify.add_argument("--no-crash", action="store_true",
                        help="skip the mid-run board crash/restart")
    verify.set_defaults(func=cmd_verify)

    rack = sub.add_parser(
        "rack",
        help="sharded rack tier: zipfian YCSB with live migration and "
             "elastic membership")
    rack.add_argument("--boards", type=_count, default=16,
                      help="CBoards in service (default: 16)")
    rack.add_argument("--tors", type=_count, default=2,
                      help="top-of-rack switches (default: 2)")
    rack.add_argument("--clients", type=_count, default=256,
                      help="zipfian client threads (default: 256)")
    rack.add_argument("--ops", type=_count, default=4,
                      help="operations per client (default: 4)")
    rack.add_argument("--scenario", default="drain",
                      choices=(*RACK_SCENARIOS, "none"),
                      help="membership event mid-traffic")
    rack.set_defaults(func=cmd_rack)

    metrics = sub.add_parser(
        "metrics", help="instrumented run with dashboard + trace export")
    metrics.add_argument("--size", default="64", type=_parse_size)
    metrics.add_argument("--ops", type=_count, default=200)
    metrics.add_argument("--interval-us", type=_interval, default=0,
                         help="sample the registry every N us of sim time "
                              "(0 = no timeseries)")
    metrics.add_argument("--prefix", default="",
                         help="only show instruments under this prefix "
                              "(e.g. cboard.mn0)")
    metrics.add_argument("--trace-out", default="",
                         help="write a Chrome/Perfetto trace_event JSON "
                              "file to this path")
    metrics.set_defaults(func=cmd_metrics)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # Every rack script but ``add`` acts on mn1, a second board in service.
    if getattr(args, "boards", 2) < 2 and args.scenario not in ("add",
                                                                 "none"):
        parser.error(f"--scenario {args.scenario} acts on mn1, so it needs "
                     "--boards 2 or more")
    bound = _size_bound(args)
    if bound is not None and args.size > bound:
        parser.error(f"size must be at most {bound} bytes, what every "
                     f"memory this command builds holds and moves in one "
                     f"request, got {args.size}")
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
