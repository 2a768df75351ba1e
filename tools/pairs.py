#!/usr/bin/env python3
"""Alternating A/B runs of one benchmark workload on two git revisions.

    python tools/pairs.py BASE CHANGE --workload echo_read64
    python tools/pairs.py HEAD~1 HEAD --workload rack_ycsb --pairs 10 --seconds 12 --seed 41

Both revisions are checked out into temporary ``git worktree``s of the
repository the command runs in.  Pair ``i`` runs ``benchmarks/e2e/run.py
--workload W --seed N --trace 0 --seconds S`` once in each, with seed
``N = --seed + i``; the base runs first in even pairs and second in odd
ones, so drift on the host falls on both sides alike.

For every end-to-end metric of the base revision's ``BENCHMARK.json`` the
report lists each run in pair order, both medians and interquartile
ranges (IQR), the median and range of the per-pair ratio change/base,
the pairs the change won (a tie counts for neither side) and the exact
two-sided sign-test p over the pairs that were not ties.  The last line
of each block says whether a gain may be claimed there
(docs/performance.md): at least ten pairs ran, the change won at least
nine tenths of them, and its median is better than the base's by more
than the base's IQR.  The exit status is 1 when a run failed or reported a failed check.

Before those blocks, three more show what a noisy neighbour did to each
run, in pair order: the host's steal jiffies over the run (the ``cpu``
line of ``/proc/stat``, read only; "n/a" where there is none), the run's
own CPU seconds (``getrusage(RUSAGE_CHILDREN)``) and its ops per CPU
second (``attempted / cpu_s``).  A pair whose steal is high, or whose
CPU seconds fall well short of its wall time, was disturbed; a run that
got less CPU loses its pair on ops/s while its ops per CPU second
holds.  They inform the reader; the claim rule does not use them.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)``; one value is its own quartiles."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def sign_test_p(wins: int, losses: int) -> float:
    """Exact two-sided sign-test p of ``wins`` against ``losses``."""
    trials = wins + losses
    tail = sum(math.comb(trials, k) for k in range(min(wins, losses) + 1))
    return min(1.0, 2 * tail / 2 ** trials)


def steal_jiffies(stat: str):
    """The steal jiffies of ``/proc/stat`` text's aggregate ``cpu`` line
    (its eighth value), or None when it has no such line or value."""
    for line in stat.splitlines():
        fields = line.split()
        if fields and fields[0] == "cpu":
            return int(fields[8]) if len(fields) > 8 else None
    return None


def _host_steal():
    try:
        return steal_jiffies(Path("/proc/stat").read_text())
    except OSError:
        return None


def _git(repo: Path, *args: str) -> str:
    return subprocess.run(["git", "-C", str(repo), *args], check=True,
                          capture_output=True, text=True).stdout.strip()


def _run(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run: its JSON line, or ``{"error": text}``, with the
    host's ``steal`` jiffies over it (None where unknown), its ``cpu_s``
    and, for a run that reported ops, ``ops_per_cpu_s``."""
    steal = _host_steal()
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    done = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", workload,
         "--seed", str(seed), "--trace", "0", "--seconds", str(seconds)],
        cwd=checkout, capture_output=True, text=True)
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    end_steal = _host_steal()
    noise = {"steal": None if steal is None or end_steal is None
             else end_steal - steal,
             "cpu_s": after.ru_utime + after.ru_stime
             - usage.ru_utime - usage.ru_stime}
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        return {"error": (done.stderr.strip() or "no output").splitlines()[-1],
                **noise}
    run = {**json.loads(lines[-1]), **noise}
    if run.get("attempted") and run["cpu_s"]:
        run["ops_per_cpu_s"] = run["attempted"] / run["cpu_s"]
    return run


def measure(repo: Path, shas: dict, workload: str, pairs: int,
            first_seed: int, seconds: float) -> list[dict]:
    """``[{"seed", "first", "base", "change"}]`` in pair order, each side
    the JSON line of its run, run in a worktree of its revision."""
    with tempfile.TemporaryDirectory(prefix="pairs-") as scratch:
        checkouts = {}
        try:
            for side, sha in shas.items():
                _git(repo, "worktree", "add", "--detach",
                     str(Path(scratch) / side), sha)
                checkouts[side] = Path(scratch) / side
            records = []
            for index in range(pairs):
                order = ("base", "change") if index % 2 == 0 else (
                    "change", "base")
                record = {"seed": first_seed + index, "first": order[0]}
                for side in order:
                    record[side] = _run(checkouts[side], workload,
                                        record["seed"], seconds)
                records.append(record)
            return records
        finally:
            for checkout in checkouts.values():
                _git(repo, "worktree", "remove", "--force", str(checkout))


def _number(value: float) -> str:
    return f"{value:.6g}"


def noise(records: list[dict]) -> list[str]:
    """Each run's host steal jiffies, CPU seconds and ops per CPU second,
    in pair order."""
    lines = []
    for key, title in (("steal", "steal jiffies (host, over each run)"),
                       ("cpu_s", "child CPU s (each run's own)"),
                       ("ops_per_cpu_s",
                        "ops per child CPU s (attempted / cpu_s)")):
        lines.append(title)
        for side in ("base", "change"):
            values = [record[side].get(key) for record in records]
            lines.append(f"  {side:6}  " + " ".join(
                "n/a" if value is None else _number(value)
                for value in values))
    return lines


def report(records: list[dict], metrics: list[dict]) -> list[str]:
    """The per-metric blocks: every run, medians, IQRs, ratios, wins, the
    sign test and whether the claim rule holds."""
    lines = []
    for metric in metrics:
        name, higher = metric["name"], metric["better"] == "higher"
        cells = [(record["base"].get("metrics", {}).get(name),
                  record["change"].get("metrics", {}).get(name))
                 for record in records]
        runs = [(old["value"], new["value"]) for old, new in cells
                if old and new]
        if not runs:
            lines.append(f"{name}: no run reported it")
            continue
        base = [pair[0] for pair in runs]
        change = [pair[1] for pair in runs]
        base_q1, base_median, base_q3 = quartiles(base)
        change_q1, change_median, change_q3 = quartiles(change)
        ratios = [new / old for old, new in runs if old]
        wins = sum(new > old if higher else new < old for old, new in runs)
        losses = sum(new < old if higher else new > old for old, new in runs)
        gap = change_median - base_median if higher else (
            base_median - change_median)
        holds = (len(runs) >= 10 and wins * 10 >= 9 * len(runs)
                 and gap > base_q3 - base_q1)
        lines += [
            f"{name} ({metric['unit']}, {'higher' if higher else 'lower'}"
            " is better)",
            f"  base    {' '.join(map(_number, base))}",
            f"          median {_number(base_median)}"
            f"  IQR {_number(base_q3 - base_q1)}",
            f"  change  {' '.join(map(_number, change))}",
            f"          median {_number(change_median)}"
            f"  IQR {_number(change_q3 - change_q1)}",
            ("  change/base  median "
             f"{_number(statistics.median(ratios))}  range "
             f"{_number(min(ratios))}..{_number(max(ratios))}")
            if ratios else "  change/base  undefined (base is 0)",
            f"  wins {wins}/{len(runs)}  losses {losses}"
            f"  sign-test p {sign_test_p(wins, losses):.4g}",
            "  claim rule (10+ pairs, wins >= 9/10, median gap > base IQR): "
            + ("holds" if holds else "fails"),
        ]
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", help="the parent revision")
    parser.add_argument("change", help="the revision that claims a gain")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=12)
    parser.add_argument("--seed", type=int, default=1,
                        help="seed of the first pair; pair i runs seed + i")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    repo = Path(_git(Path.cwd(), "rev-parse", "--show-toplevel"))
    shas = {"base": _git(repo, "rev-parse", "--verify",
                         args.base + "^{commit}"),
            "change": _git(repo, "rev-parse", "--verify",
                           args.change + "^{commit}")}
    metrics = json.loads(_git(repo, "show", shas["base"] + ":BENCHMARK.json")
                         )["end_to_end"]
    records = measure(repo, shas, args.workload, args.pairs, args.seed,
                      args.seconds)
    print(f"base    {shas['base'][:12]}  ({args.base})")
    print(f"change  {shas['change'][:12]}  ({args.change})")
    print(f"workload {args.workload}, {args.pairs} pairs of --seconds "
          f"{args.seconds:g} --trace 0, seeds "
          f"{' '.join(str(record['seed']) for record in records)}, first "
          f"{' '.join(record['first'] for record in records)}")
    broken = 0
    for side in ("base", "change"):
        runs = [record[side] for record in records]
        for record, run in zip(records, runs):
            if "error" in run or not run["correct"]:
                broken += 1
                print(f"{side} seed {record['seed']}: "
                      + run.get("error", "a check failed"))
        print(f"{side} failed ops {sum(run.get('failed', 0) for run in runs)}"
              f" of {sum(run.get('attempted', 0) for run in runs)}")
    print("\n".join(noise(records) + report(records, metrics)))
    return 1 if broken else 0


if __name__ == "__main__":
    sys.exit(main())
