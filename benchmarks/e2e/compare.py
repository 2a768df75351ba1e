#!/usr/bin/env python3
"""Compare two outputs of ``run.py --out``: one row per workload x metric.

    python3 benchmarks/e2e/compare.py A.json B.json

A is the base.  Each row gives both values (with the quartiles of the
samples behind them where there are several), the ratio B / A with its
base, and a verdict against the metric's *review* bound in ``metrics.py``
(10 % host rate and memory, 0.5 % simulated, 25 % set-up, 0 failed ops):

* ``same``        B is within the bound of A, either way;
* ``worse``       B is worse than A by more than the bound;
* ``better``      B is better than A by more than the bound;
* ``unresolved``  the samples behind either value (the twelve slice
  rates, the five set-up times) are spread, q3 - q1 as a share of their
  median, by more than the bound, so this pair of runs cannot tell a
  change of that size from noise: measure again, do not read it as
  "same".  Simulated rows and the replay digest are exact for a seed;
  when A and B used different seeds they are ``unresolved`` too.

Exits 1 when any row is ``worse`` or ``unresolved``.  When A and B are the
same commit and seed the comparison is an agreement check of the benchmark
itself, and ``better`` and ``differs`` fail it too: two runs of one commit
that disagree by more than the bound mean a single pair of runs cannot
hold that bound on this host.
"""

from __future__ import annotations

import json
import sys

from metrics import END_TO_END


def verdict(base: float, new: float, better: str, bound: float,
            spread: float) -> str:
    if spread > bound:
        return "unresolved"
    change = (new - base) / base if base else new - base
    worse_by = change if better == "lower" else -change
    if worse_by > bound:
        return "worse"
    return "better" if worse_by < -bound else "same"


def _spread(cell: dict, metric: str) -> float:
    quartiles = cell["spread"].get(metric)
    if not quartiles:
        return 0.0
    q1, median, q3 = quartiles
    return (q3 - q1) / median


def _show(cell: dict, metric: str) -> str:
    text = f"{cell['metrics'][metric]['value']:.6g}"
    quartiles = cell["spread"].get(metric)
    if quartiles:
        text += " [{:.4g} {:.4g} {:.4g}]".format(*quartiles)
    return text


def compare(base: dict, new: dict) -> list:
    """Rows ``(workload, metric, base, new, ratio, verdict)``."""
    same_seed = base["seed"] == new["seed"]
    rows = []
    for workload, entry in base["workloads"].items():
        ours = entry["end_to_end"]
        theirs = new["workloads"][workload]["end_to_end"]
        for metric, _, better, _, bound, kind in END_TO_END:
            a = ours["metrics"][metric]["value"]
            b = theirs["metrics"][metric]["value"]
            exact = kind == "simulated"
            rows.append((
                workload, metric, _show(ours, metric), _show(theirs, metric),
                f"{b / a:.4f} of {a:.6g}",
                "unresolved" if exact and not same_seed else
                verdict(a, b, better, bound,
                        max(_spread(ours, metric), _spread(theirs, metric)))))
        a_failed = ours["failed"] / ours["attempted"]
        b_failed = theirs["failed"] / theirs["attempted"]
        rows.append((workload, "failed_ops_share", f"{a_failed:.6g}",
                     f"{b_failed:.6g}", "n/a",
                     verdict(a_failed, b_failed, "lower", 0.0, 0.0)))
        rows.append((workload, "replay_digest", ours["digest"][:12],
                     theirs["digest"][:12], "n/a",
                     "unresolved" if not same_seed else
                     "same" if ours["digest"] == theirs["digest"]
                     else "differs"))
    return rows


def main(argv) -> int:
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    with open(argv[1]) as handle:
        base = json.load(handle)
    with open(argv[2]) as handle:
        new = json.load(handle)
    rows = compare(base, new)
    header = ("workload", "metric", "A", "B", "B / A", "verdict")
    widths = [max(len(row[i]) for row in rows + [header])
              for i in range(len(header))]
    for row in [header] + rows:
        print("  ".join(text.ljust(width)
                        for text, width in zip(row, widths)).rstrip())
    print(f"# A: seed {base['seed']} at {base['host']['git_sha'][:12]} on "
          f"{base['host']['platform']}; B: seed {new['seed']} at "
          f"{new['host']['git_sha'][:12]} on {new['host']['platform']}")
    same_run = (base["seed"] == new["seed"]
                and base["host"]["git_sha"] == new["host"]["git_sha"])
    failing = (("worse", "unresolved", "better", "differs") if same_run
               else ("worse", "unresolved"))
    bad = [row for row in rows if row[5] in failing]
    print(f"# {len(bad)} of {len(rows)} rows fail"
          + (" (same commit and seed: better and differs fail too)"
             if same_run else ""))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
