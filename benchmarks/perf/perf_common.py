"""Shared measurement helpers for the engine performance suite.

These benchmarks measure *simulator* throughput — how many engine events
(and end-to-end operations) the pure-Python DES core dispatches per
wall-clock second — not simulated latency.  The point is to keep the
reproduction fast enough that production-scale configurations stay
tractable, and to leave a committed trajectory (``BENCH_perf.json`` at
the repo root) that future PRs can compare against.

Methodology: each benchmark builds a fresh workload, runs it once to
completion, and reports

* ``events_per_sec`` — events dispatched / wall seconds (the engine's
  scheduling sequence counter is a faithful count of dispatched events);
* ``ops_per_sec``   — workload-level operations / wall seconds, where an
  "op" is whatever the benchmark says it is (a packet echoed, a timeout
  chain step, ...).

Floors asserted here are deliberately loose (~5-10x below the numbers a
developer laptop produces) so CI noise never makes them flaky; the JSON
file carries the real trajectory.
"""

from __future__ import annotations

import json
import os
import sys
import time
from dataclasses import dataclass
from typing import Callable, Union

from repro.verify.scenarios import QOS_SHAPED, QOS_UNSHAPED, RACK_RECOVERY

REPO_ROOT = os.path.dirname(os.path.dirname(
    os.path.dirname(os.path.abspath(__file__))))
BENCH_FILE = os.path.join(REPO_ROOT, "BENCH_perf.json")


def run_timed(env, run: Callable[[], None]) -> dict:
    """Run ``run()`` and return wall time plus engine event counts.

    ``env`` must be the Environment the workload schedules into; its
    internal sequence counter before/after gives the number of events
    dispatched by the run.
    """
    events_before = env._seq
    start = time.perf_counter()
    run()
    wall_s = time.perf_counter() - start
    events = env._seq - events_before
    return {
        "wall_s": round(wall_s, 4),
        "events": events,
        "events_per_sec": round(events / wall_s) if wall_s > 0 else 0,
    }


def measure_ops(env, run: Callable[[], None], ops: int) -> dict:
    """Like :func:`run_timed`, adding ops/sec for ``ops`` operations."""
    metrics = run_timed(env, run)
    metrics["ops"] = ops
    if metrics["wall_s"] > 0:
        metrics["ops_per_sec"] = round(ops / metrics["wall_s"])
    return metrics


def best_of(reps: int, measure: Callable[[], dict]) -> dict:
    """Run ``measure`` ``reps`` times and keep the fastest run.

    Each call must build a fresh workload.  Best-of-N is the standard way
    to strip scheduler/frequency noise from a throughput number: the
    fastest run is the one least disturbed by the rest of the machine.
    Deterministic fields (anything not in wall-clock units) must agree
    across runs, and the chosen run carries a ``reps`` count.
    """
    runs = [measure() for _ in range(reps)]
    wall_keys = {"wall_s", "events_per_sec", "ops_per_sec"}
    for run in runs[1:]:
        for key in runs[0]:
            if key not in wall_keys:
                assert run[key] == runs[0][key], key
    best = max(runs, key=lambda m: m["events_per_sec"])
    best["reps"] = reps
    return best


def record(section: str, name: str, metrics: dict) -> None:
    """Merge one benchmark's metrics into ``BENCH_perf.json``."""
    data = {}
    if os.path.exists(BENCH_FILE):
        with open(BENCH_FILE) as handle:
            try:
                data = json.load(handle)
            except ValueError:
                data = {}
    data.setdefault(section, {})[name] = metrics
    with open(BENCH_FILE, "w") as handle:
        json.dump(data, handle, indent=2, sort_keys=True)
        handle.write("\n")


# -- BENCH_perf.json schema: one table, one validator ----------------------------


def _number(cell: dict, key: str):
    value = cell.get(key)
    return value if isinstance(value, (int, float)) else None


def _engine_modes_agree(cells: dict) -> list[str]:
    """The cross-mode contract: every ``rack_echo_*`` engine mode
    dispatches the same number of events."""
    events = {name: cell.get("events") for name, cell in cells.items()
              if name.startswith("rack_echo_")}
    if len(set(events.values())) > 1:
        return [f"rack_echo modes dispatched different event counts: {events}"]
    return []


def _rack_tail_recovers(cells: dict) -> list[str]:
    """Cells that ran a membership script must clear the scenario's
    rebalance-quality bar (declared on the rack scenario)."""
    problems = []
    for name, cell in cells.items():
        if cell.get("scenario") is None:
            continue
        ratio = _number(cell, "recovery_ratio")
        failure = (f"bad 'recovery_ratio': {ratio!r}"
                   if ratio is None or ratio <= 0
                   else RACK_RECOVERY.failure(ratio))
        if failure:
            problems.append(f"{name}: {failure}")
    return problems


def _cache_acceptance(cells: dict) -> list[str]:
    """At least one cell clears >= 2x simulated ops/sec at >= 90% hit
    rate — the reason the subsystem exists."""
    problems = [f"{name}: bad 'policy': {cell.get('policy')!r}"
                for name, cell in cells.items()
                if cell.get("policy") not in ("through", "back")]
    if not any((_number(cell, "speedup") or 0) >= 2.0
               and (_number(cell, "hit_rate") or 0) >= 0.9
               for cell in cells.values()):
        problems.append("no cache cell clears the acceptance bar "
                        "(speedup >= 2.0 at hit_rate >= 0.9)")
    return problems


def _cxl_tradeoffs(cells: dict) -> list[str]:
    """The three-way trade-off the CXL backend exists to demonstrate:
    cache-line loads skip RPC framing, so the CXL 64B hot read beats
    Clio's; write-heavy churn on a shared pool pays coherence, so CXL's
    churn tail *loses* to Clio's; and the noisy-neighbor cells clear the
    QoS scenarios' isolation bars."""
    problems = []
    for prefix, key, cxl_wins in (("subline_read", "read_p50_ns", True),
                                  ("pooled_churn", "write_p99_ns", False)):
        cxl, clio = (_number(cells.get(f"{prefix}.{side}", {}), key)
                     for side in ("cxl", "clio"))
        if cxl is None or clio is None:
            problems.append(f"missing {prefix}.{{cxl,clio}} cells")
        elif cxl == clio or (cxl < clio) != cxl_wins:
            problems.append(
                f"{prefix}: CXL {key} {cxl} vs Clio {clio} — CXL should "
                + ("beat Clio" if cxl_wins else "lose to Clio"))
    for side, bar in (("shaped", QOS_SHAPED), ("unshaped", QOS_UNSHAPED)):
        inflation = _number(cells.get(f"noisy_neighbor.{side}", {}),
                            "inflation")
        failure = ("cell missing" if inflation is None
                   else bar.failure(inflation))
        if failure:
            problems.append(f"noisy_neighbor.{side}: {failure}")
    return problems


def _alloc_acceptance(cells: dict) -> list[str]:
    """For some scenario the arena cell's slow-path crossings are at
    most half the freelist cell's, some buddy cell reports a
    fragmentation ratio, and a freelist cell pins a fingerprint."""
    by_pair = {(cell.get("scenario"), cell.get("strategy")): cell
               for cell in cells.values()}
    problems = []
    if not any((scenario, "arena") in by_pair
               and by_pair[(scenario, "arena")]["slow_crossings"] * 2
               <= cell["slow_crossings"]
               for (scenario, strategy), cell in by_pair.items()
               if strategy == "freelist"):
        problems.append("no scenario shows arena slow-path crossings at "
                        "<= half the freelist's (acceptance bar: 2x cut)")
    if not any(cell.get("strategy") == "buddy"
               and _number(cell, "fragmentation") is not None
               for cell in cells.values()):
        problems.append("no buddy cell reports an external-fragmentation "
                        "ratio")
    if not any(cell.get("strategy") == "freelist"
               and isinstance(cell.get("fingerprint"), str)
               and len(cell["fingerprint"]) >= 16
               for cell in cells.values()):
        problems.append("no freelist cell pins a determinism fingerprint")
    return problems


def _batch_series(cells: dict) -> list[str]:
    """Every batch cell is a non-empty sweep of batch size -> positive
    off/on simulated throughputs and speedup."""
    problems = []
    for name, cell in cells.items():
        if cell.get("kind") not in ("read", "write"):
            problems.append(f"{name}: bad 'kind': {cell.get('kind')!r}")
        series = cell.get("series")
        if not series:
            problems.append(f"{name}: empty sweep series")
            continue
        for batch_size, point in series.items():
            if int(batch_size) < 1:
                problems.append(f"{name}: bad batch size {batch_size!r}")
            problems.extend(
                f"{name}[{batch_size}]: bad {key!r}: {point.get(key)!r}"
                for key in ("sim_ops_per_sec_off", "sim_ops_per_sec_on",
                            "speedup") if not (_number(point, key) or 0) > 0)
    return problems


@dataclass(frozen=True)
class Section:
    """Schema of one BENCH_perf.json section.

    Key specs are tuples applying to every cell, or ``{cell-name prefix:
    keys}`` dicts (a cell matching no prefix is a problem).
    """

    positive: Union[tuple, dict] = ()   # numbers > 0
    counts: tuple = ()                  # ints >= 0
    unit: tuple = ()                    # numbers in [0, 1]
    bars: tuple = ()                    # cells -> problems
    #: Which entries of the section are cells (alloc also holds scalars).
    is_cell: Callable[[object], bool] = lambda cell: True


SECTIONS = {
    "engine": Section(positive=("wall_s", "events", "events_per_sec"),
                      bars=(_engine_modes_agree,)),
    "rack": Section(
        positive=("boards", "tors", "clients", "ops", "sim_ops_per_sec",
                  "events_per_sec", "wall_s", "pre_p99_us", "post_p99_us"),
        counts=("migrations",), bars=(_rack_tail_recovers,)),
    "cache": Section(
        positive=("sim_ops_per_sec_off", "sim_ops_per_sec_on", "speedup",
                  "ops"),
        unit=("hit_rate",), bars=(_cache_acceptance,)),
    "cxl": Section(
        positive={
            "subline_read.": ("ops", "read_p50_ns", "read_p99_ns",
                              "wall_s", "events"),
            "pooled_churn.": ("clients", "ops", "write_p50_ns",
                              "write_p99_ns", "wall_s", "events"),
            "noisy_neighbor.": ("victim_base_p99_ns", "victim_noisy_p99_ns",
                                "inflation", "aggressor_ops", "wall_s",
                                "events"),
        },
        bars=(_cxl_tradeoffs,)),
    "alloc": Section(
        positive=("ops", "alloc_p50_us", "alloc_p99_us"),
        counts=("retries", "slow_crossings", "failed"),
        unit=("fragmentation",), bars=(_alloc_acceptance,),
        is_cell=lambda cell: isinstance(cell, dict) and "strategy" in cell),
    "batch": Section(positive=("op_size", "ops"), bars=(_batch_series,)),
}


def validate_section(data: dict, name: str) -> list[str]:
    """Schema-check section ``name`` of a BENCH_perf.json payload;
    returns the problems (empty when the section is well-formed)."""
    spec = SECTIONS[name]
    if not data.get(name):
        return [f"no {name!r} section"]
    cells = {cell_name: cell for cell_name, cell in data[name].items()
             if spec.is_cell(cell)}
    problems: list[str] = []
    for cell_name, cell in cells.items():
        positive = spec.positive
        if isinstance(positive, dict):
            positive = next((keys for prefix, keys in positive.items()
                             if cell_name.startswith(prefix)), None)
            if positive is None:
                problems.append(f"unknown {name} cell {cell_name!r}")
                continue
        checks = ((positive, lambda v: v > 0),
                  (spec.counts, lambda v: isinstance(v, int) and v >= 0),
                  (spec.unit, lambda v: 0 <= v <= 1))
        for keys, ok in checks:
            for key in keys:
                value = _number(cell, key)
                if value is None or not ok(value):
                    problems.append(
                        f"{cell_name}: bad {key!r}: {cell.get(key)!r}")
    for bar in spec.bars:
        problems.extend(bar(cells))
    return problems


def main(argv: list[str]) -> int:
    """``perf_common.py validate SECTION...`` — CI's schema check."""
    if len(argv) < 2 or argv[0] != "validate":
        print(f"usage: perf_common.py validate {{{','.join(SECTIONS)}}}...")
        return 2
    with open(BENCH_FILE) as handle:
        data = json.load(handle)
    failed = 0
    for name in argv[1:]:
        problems = validate_section(data, name)
        for problem in problems:
            print(f"BENCH_perf.json {name}: {problem}")
        if not problems:
            print(f"BENCH_perf.json {name} section OK: {sorted(data[name])}")
        failed += bool(problems)
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
