#!/usr/bin/env python3
"""The end-to-end benchmark: seven workloads, host + simulated metrics.

Two ways to run it, both from the repository root::

    python3 benchmarks/e2e/run.py [--seed N] [--out FILE]
    python3 benchmarks/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1

The first runs every workload, untraced and traced, prints one row per
metric (``workload metric value unit``) and exits non-zero if any check
failed.  The second is the form ``BENCHMARK.json`` names: one workload,
and the last line of output is one JSON object with the end-to-end
metrics (``--trace 0``) or the per-layer metrics (``--trace 1``).

Every measurement runs in a fresh child interpreter (this same file with
``--child``), one at a time, single threaded, so set-up time and peak
memory belong to one workload and nothing else.  See README.md here for
the method and for how to read the numbers.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")

from metrics import (END_TO_END, LAYERS, PAPER_READ64_NS, PER_LAYER,  # noqa: E402
                     quantile_ns, quartiles)

#: Slices of the timed part of every ``--trace 0`` run.
SLICES = 12
#: Untraced slices of a ``--trace 1`` run (the base the shares multiply).
TRACE_SLICES = 4
#: Partitioned-engine slices of ``rack_ycsb``'s ``--trace 1`` run.
PARTITIONED_SLICES = 3
#: Set-ups timed per ``--trace 0`` run; ``setup_s`` is their median.
SETUP_SAMPLES = 5
#: ``run_seconds`` of ``BENCHMARK.json``: the run length the workloads' op
#: counts are sized for.  ``--seconds`` scales the counts from here.
RUN_SECONDS = 12


# -- child: one measurement in a fresh interpreter ------------------------------

def child(args) -> dict:
    """Set up one workload, run slices, report raw numbers as a dict."""
    sys.path.insert(0, SRC)
    from workloads import WORKLOADS
    options = {"tracing": True} if args.tracing else {}
    if args.partitioned:
        options["partitioned"] = True
    workload = WORKLOADS[args.workload](
        args.seed, args.seconds / RUN_SECONDS, **options)
    inputs = workload.prepare(0)
    gc.collect()
    setup_s = time.perf_counter() - args.spawned_at
    if args.child == "setup":
        return {"setup_s": setup_s}

    profile = None
    if args.child == "profile":
        import cProfile
        profile = cProfile.Profile()
    slices, problems, digests = [], [], []
    latencies = Counter()        # simulated ns -> ops
    spans = None
    for index in range(args.slices):
        if index:
            inputs = workload.prepare(index)
            gc.collect()
        started = time.perf_counter()
        if profile is not None:
            raw = profile.runcall(workload.execute, inputs)
        else:
            raw = workload.execute(inputs)
        wall_s = time.perf_counter() - started
        done = workload.summarize(raw)
        slices.append({"ops": done.ops, "failed": done.failed,
                       "events": done.events, "sim_ns": done.sim_ns,
                       "wall_s": wall_s, "tick_rates": done.tick_rates})
        problems += [f"slice {index}: {text}" for text in done.problems]
        latencies.update(done.latencies)
        digests.append(done.digest)
        if index == 0 and args.tracing:
            from layers import span_attribution
            tracer = workload.tracer
            spans = span_attribution(
                tracer.spans if tracer is not None else [], done.ops,
                statistics.fmean(done.latencies))
    problems += workload.problems()

    samples = sum(latencies.values())
    out = {
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss(),
        "slices": slices,
        "problems": problems,
        "first_digest": digests[0],
        "digest": hashlib.blake2b("".join(digests).encode(),
                                  digest_size=16).hexdigest(),
        "sim": {
            "p50_ns": quantile_ns(latencies, 0.50),
            "p99_ns": quantile_ns(latencies, 0.99),
            "ops_per_s": sum(s["ops"] for s in slices) * 1e9
            / sum(s["sim_ns"] for s in slices),
            "samples": samples,
            "beyond_p99": samples - math.ceil(0.99 * samples),
        },
        "counters": workload.counters(),
        "spans": spans,
    }
    if profile is not None:
        from layers import host_attribution
        out["layers"] = host_attribution(profile)
    return out


def peak_rss() -> float:
    """This interpreter's peak resident set in MB (Linux counts KB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def spawn(mode: str, workload: str, seed: int, seconds: float,
          slices: int = 1, tracing: bool = False,
          partitioned: bool = False) -> dict:
    """Run one child to completion and return what it reported."""
    # perf_counter is CLOCK_MONOTONIC on Linux: one clock for both
    # processes, so the child can time itself from before it existed.
    command = [sys.executable, os.path.abspath(__file__), "--child", mode,
               "--workload", workload, "--seed", str(seed),
               "--seconds", repr(seconds), "--slices", str(slices),
               "--spawned-at", repr(time.perf_counter())]
    command += ["--tracing"] if tracing else []
    command += ["--partitioned"] if partitioned else []
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
    if done.returncode != 0:
        raise RuntimeError(f"{mode} child of {workload} exited with "
                           f"{done.returncode}")
    return json.loads(done.stdout.splitlines()[-1])


# -- parent: turn children's raw numbers into metrics ----------------------------

def _tally(*children) -> tuple:
    """(attempted, failed, problems) over the given children."""
    attempted = sum(s["ops"] for c in children for s in c["slices"])
    failed = sum(s["failed"] for c in children for s in c["slices"])
    problems = [text for c in children for text in c["problems"]]
    if failed:
        problems.append(f"{failed} of {attempted} ops failed")
    return attempted, failed, problems


def undisturbed(timed: dict) -> float:
    """The host rate a run reports: that of its fastest ~50 ms stretch.

    The VM this runs on slows everything by a factor that wanders between
    1.0 and 1.6 from one 5 ms to the next, for minutes at a time, and it
    only ever slows (README, "Noise").  Whole-slice rates follow that
    load: over ten runs of one commit their median spread (q3 - q1) by
    up to 33 % of itself, more than any bound ``BENCHMARK.json`` may
    declare.  As with ``timeit``, the fastest stretch is what the program
    does when left alone, and it repeats better (2-13 % over the same
    runs).  The slice rates are reported beside it.
    """
    return max(rate for s in timed["slices"] for rate in s["tick_rates"])


def run_end_to_end(workload: str, seed: int, seconds: float) -> dict:
    """The ``--trace 0`` run: 12 untraced slices plus repeated set-ups."""
    setups = [spawn("setup", workload, seed, seconds)["setup_s"]
              for _ in range(SETUP_SAMPLES - 1)]
    timed = spawn("timed", workload, seed, seconds, slices=SLICES)
    setups.append(timed["setup_s"])
    attempted, failed, problems = _tally(timed)
    rates = [s["ops"] / s["wall_s"] for s in timed["slices"]]
    sim = timed["sim"]
    values = {
        "host_ops_per_s": undisturbed(timed),
        "sim_p50_ns": sim["p50_ns"],
        "sim_p99_ns": sim["p99_ns"],
        "sim_ops_per_s": sim["ops_per_s"],
        "peak_rss_mb": timed["peak_rss_mb"],
        "setup_s": statistics.median(setups),
    }
    return {
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit, *_ in END_TO_END},
        "spread": {"host_ops_per_s": quartiles(rates),
                   "setup_s": quartiles(setups)},
        "slices": len(rates), "setups": len(setups),
        "ticks": sum(len(s["tick_rates"]) for s in timed["slices"]),
        "timed_s": sum(s["wall_s"] for s in timed["slices"]),
        "sim_samples": sim["samples"], "sim_beyond_p99": sim["beyond_p99"],
        "digest": timed["digest"],
        "attempted": attempted, "failed": failed, "problems": problems,
    }


def run_per_layer(workload: str, seed: int, seconds: float) -> dict:
    """The ``--trace 1`` run: untraced base, pass H, pass S, and extras."""
    timed = spawn("timed", workload, seed, seconds, slices=TRACE_SLICES)
    host = spawn("profile", workload, seed, seconds)
    traced = spawn("timed", workload, seed, seconds, tracing=True)
    children = [timed, host, traced]
    values = dict.fromkeys((name for name, *_ in PER_LAYER), 0.0)

    ops = sum(s["ops"] for s in timed["slices"])
    rate = undisturbed(timed)
    us_per_op = 1e6 / rate
    profiled = host["slices"][0]
    for layer in LAYERS:
        share, calls = host["layers"][layer]
        values[f"{layer}.self_share"] = share
        values[f"{layer}.self_us_per_op"] = share * us_per_op
        values[f"{layer}.calls_per_op"] = calls / profiled["ops"]
    values["trace.host_overhead_ratio"] = rate / undisturbed(host)

    events = sum(s["events"] for s in timed["slices"])
    values["sim.events_per_op"] = events / ops
    values["sim.events_per_s"] = rate * events / ops
    values["sim.host_ns_per_event"] = 1e9 / values["sim.events_per_s"]

    if timed["counters"]:
        get = Counter(timed["counters"]).__getitem__    # 0 when not counted
        lookups = get("tlb_hits") + get("tlb_misses")
        values.update({
            "net.packets_per_op": get("packets") / ops,
            "net.wire_bytes_per_op": get("wire_bytes") / ops,
            "net.drops": get("drops"),
            "net.switch_forwards_per_op": get("switch_forwards") / ops,
            "transport.requests_per_op": get("requests_issued") / ops,
            "transport.retries_per_kop": get("retries") * 1000 / ops,
            "transport.requests_failed": get("requests_failed"),
            "transport.cwnd_final": get("cwnd_final"),
            "core.pipeline_requests_per_op": get("pipeline_requests") / ops,
            "core.tlb_hit_rate": get("tlb_hits") / lookups if lookups else 0,
            "core.page_faults": get("page_faults"),
            "core.retry_dedups": get("retry_dedups"),
            "core.slowpath_allocs": get("slowpath_allocs"),
            "core.slowpath_frees": get("slowpath_frees"),
            "alloc.slow_crossings": get("slow_crossings"),
            "alloc.va_retries": get("va_retries"),
            "alloc.fragmentation": get("fragmentation"),
            "rack.migrations": get("migrations"),
            "rack.boards_in_service": get("boards_in_service"),
        })
    values.update(traced["spans"])

    notes = {}
    if workload == "echo_read64":
        for key, got, paper in zip(("model.p50_err_pct", "model.p99_err_pct"),
                                   (timed["sim"]["p50_ns"],
                                    timed["sim"]["p99_ns"]), PAPER_READ64_NS):
            values[key] = abs(got - paper) / paper * 100
            notes[key] = (f"simulated {got:.1f} ns against the paper's "
                          f"{paper:.0f} ns ({(got - paper) / paper:+.1%})")
    if workload == "echo_read64_traced":
        plain = spawn("timed", "echo_read64", seed, seconds,
                      slices=TRACE_SLICES)
        children.append(plain)
        off = undisturbed(plain)
        values["telemetry.host_overhead_ratio"] = off / rate
        notes["telemetry.host_overhead_ratio"] = (
            f"echo_read64 {off:.0f} ops/s / echo_read64_traced "
            f"{rate:.0f} ops/s")
    replays = [("pass H", host), ("pass S", traced)]
    if workload == "rack_ycsb":
        split = spawn("timed", workload, seed, seconds, partitioned=True,
                      slices=PARTITIONED_SLICES)
        children.append(split)
        values["sim.partitioned_host_ratio"] = undisturbed(split) / rate
        notes["sim.partitioned_host_ratio"] = (
            f"partitioned / flat {rate:.0f} ops/s")
        replays.append(("partitioned engine", split))

    attempted, failed, problems = _tally(*children)
    first = timed["slices"][0]
    for label, other in replays:
        if (other["first_digest"] != timed["first_digest"]
                or other["slices"][0]["sim_ns"] != first["sim_ns"]):
            problems.append(f"{label} did not replay the untraced slice")
    if values["transport.requests_per_op"] and (
            values["trace.sim_sum_error_ns"] > 1.0):
        problems.append("layer self times miss the mean latency by "
                        f"{values['trace.sim_sum_error_ns']:.2f} ns/op")
    share_sum = sum(values[f"{layer}.self_share"] for layer in LAYERS)
    if abs(share_sum - 1.0) > 0.01:
        problems.append(f"layer shares sum to {share_sum:.4f}")
    return {
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit, *_ in PER_LAYER},
        "notes": notes, "attempted": attempted, "failed": failed,
        "problems": problems,
    }


# -- the two command forms --------------------------------------------------------

def spin_score() -> float:
    """Iterations per second of a fixed pure-Python loop on this host."""
    started, value = time.perf_counter(), 1
    for _ in range(2_000_000):
        value = (value * 31 + 7) % 1_000_003
    return 2_000_000 / (time.perf_counter() - started)


def host_metadata() -> dict:
    try:
        sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True,
                             check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = "unknown"
    return {"git_sha": sha, "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "platform": platform.platform(),
            "spin_loop_per_s": spin_score()}


def run_all(seed: int, seconds: float, out_path) -> int:
    """Every workload, untraced then traced; rows on stdout."""
    from workloads import WORKLOADS
    started = time.perf_counter()
    document = {"host": host_metadata(), "seed": seed, "seconds": seconds,
                "workloads": {}}
    failures = 0
    for name in WORKLOADS:
        end_to_end = run_end_to_end(name, seed, seconds)
        per_layer = run_per_layer(name, seed, seconds)
        document["workloads"][name] = {"end_to_end": end_to_end,
                                       "per_layer": per_layer}
        for metric, cell in end_to_end["metrics"].items():
            extra = ""
            if metric in end_to_end["spread"]:
                q1, median, q3 = end_to_end["spread"][metric]
                extra = f"  q1={q1:.6g} median={median:.6g} q3={q3:.6g}"
                extra += (f" slices={end_to_end['slices']}"
                          f" ticks={end_to_end['ticks']}"
                          if metric == "host_ops_per_s"
                          else f" setups={end_to_end['setups']}")
            elif metric.startswith("sim_p"):
                extra = (f"  samples={end_to_end['sim_samples']} "
                         f"beyond_p99={end_to_end['sim_beyond_p99']}")
            print(f"{name} {metric} {cell['value']:.6g} {cell['unit']}{extra}")
        attempted = end_to_end["attempted"] + per_layer["attempted"]
        failed = end_to_end["failed"] + per_layer["failed"]
        print(f"{name} failed_ops_share {failed / attempted:.6g} ratio"
              f"  failed={failed} attempted={attempted}")
        for metric, cell in per_layer["metrics"].items():
            note = per_layer["notes"].get(metric)
            print(f"{name} {metric} {cell['value']:.6g} {cell['unit']}"
                  + (f"  {note}" if note else ""))
        for text in end_to_end["problems"] + per_layer["problems"]:
            failures += 1
            print(f"{name} CHECK FAILED: {text}")
        sys.stdout.flush()
    document["wall_s"] = time.perf_counter() - started
    print(f"# {len(WORKLOADS)} workloads in {document['wall_s']:.1f} s, "
          f"{failures} failed checks")
    if out_path:
        with open(out_path, "w") as handle:
            json.dump(document, handle, indent=1, sort_keys=True)
            handle.write("\n")
    return 1 if failures else 0


def run_one(workload: str, seed: int, seconds: float, trace: int) -> int:
    """The ``BENCHMARK.json`` form: one workload, one JSON line."""
    result = (run_per_layer(workload, seed, seconds) if trace
              else run_end_to_end(workload, seed, seconds))
    for text in result["problems"]:
        print(f"{workload} CHECK FAILED: {text}", file=sys.stderr)
    print(json.dumps({"correct": not result["problems"],
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": result["metrics"]}))
    return 1 if result["problems"] else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="also write every number as JSON")
    hidden = argparse.SUPPRESS      # what spawn() passes to a child
    parser.add_argument("--child", help=hidden)
    parser.add_argument("--slices", type=int, default=1, help=hidden)
    parser.add_argument("--spawned-at", type=float, help=hidden)
    parser.add_argument("--tracing", action="store_true", help=hidden)
    parser.add_argument("--partitioned", action="store_true", help=hidden)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"no program to measure: {SRC}/repro is missing",
              file=sys.stderr)
        return 2
    if args.child:
        print(json.dumps(child(args)))
        return 0
    from workloads import WORKLOADS
    if args.workload is None:
        return run_all(args.seed, args.seconds, args.out)
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r} "
                     f"(choose from {', '.join(WORKLOADS)})")
    return run_one(args.workload, args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    sys.exit(main())
