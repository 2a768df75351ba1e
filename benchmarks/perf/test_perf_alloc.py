"""Allocation-strategy benchmark: the churn scenario suite across PA
strategies and VA policies.

What is on trial:

* **slow-path crossings** — per-process arenas must cut ARM global-pool
  touches by at least 2x on the small-object churn mix vs the default
  free list (the ISSUE acceptance bar; in practice batching wins ~50x);
* **fragmentation** — the buddy allocator must report a meaningful
  external-fragmentation ratio on the mixed-size scenario;
* **retry storms** — on the near-full page table the retry-aware
  ``jump`` VA policy must not pay more retries than first-fit;
* **determinism** — the default-strategy cell records a fingerprint so
  cross-PR drift in the allocation history is visible in the committed
  numbers.

All comparisons are over *simulated* time and deterministic counters,
so the asserted bars are safe on shared CI runners.  Results land in
``BENCH_perf.json`` under the ``alloc`` section (schema-checked by
``perf_common.validate_section``).  Set ``REPRO_BENCH_TINY=1``
(the CI alloc-smoke job does) to shrink the workload.
"""

from __future__ import annotations

import os
import time

from perf_common import record, validate_section

from repro.workloads.churn import run_churn

TINY = bool(os.environ.get("REPRO_BENCH_TINY"))

OPS = 80 if TINY else 240
STORM_OPS = 40 if TINY else 120
SEED = 7

STRATEGIES = ("freelist", "slab", "buddy", "arena")


def _cell(scenario: str, strategy: str, va_policy: str = "first-fit",
          ops: int = OPS) -> dict:
    start = time.perf_counter()
    report = run_churn(scenario, pa_strategy=strategy, va_policy=va_policy,
                       seed=SEED, ops=ops)
    wall_s = time.perf_counter() - start
    assert not report.violations, [v.describe() for v in report.violations]
    assert report.ops_failed == 0, report.summary()
    cell = report.summary()
    cell["wall_s"] = round(wall_s, 4)
    cell["events"] = report.events
    cell["sim_now_us"] = round(report.now_ns / 1000, 1)
    return cell


def test_alloc_churn_records_and_clears_bars():
    cells = {}
    for scenario in ("small-churn", "small-large-mix"):
        for strategy in STRATEGIES:
            cells[f"{scenario}.{strategy}"] = _cell(scenario, strategy)

    # Acceptance bar: arenas amortize global-pool crossings >= 2x on the
    # small-object churn mix (deterministic counter, not wall time).
    freelist = cells["small-churn.freelist"]
    arena = cells["small-churn.arena"]
    assert arena["slow_crossings"] * 2 <= freelist["slow_crossings"], (
        freelist["slow_crossings"], arena["slow_crossings"])

    # Buddy must report external fragmentation on the mixed-size mix;
    # the single-page mix keeps it in [0, 1] too.
    for name, cell in cells.items():
        assert 0.0 <= cell["fragmentation"] <= 1.0, (name, cell)
    assert cells["small-large-mix.buddy"]["fragmentation"] > 0.0

    # Identical-latency sanity: strategy choice is pure bookkeeping, so
    # the non-arena strategies see the same simulated allocation tail.
    assert (cells["small-churn.freelist"]["alloc_p99_us"]
            == cells["small-churn.slab"]["alloc_p99_us"]
            == cells["small-churn.buddy"]["alloc_p99_us"])

    for name, cell in cells.items():
        record("alloc", name, cell)


def test_alloc_retry_storm_policies_record():
    cells = {}
    for policy in ("first-fit", "jump"):
        cells[policy] = _cell("retry-storm", "freelist", va_policy=policy,
                              ops=STORM_OPS)
    # The memoizing jumper may never pay MORE retries than the paper's
    # linear search on the same storm.
    assert cells["jump"]["retries"] <= cells["first-fit"]["retries"], cells
    assert cells["first-fit"]["retries"] > 0, (
        "retry-storm failed to force hash-overflow retries")
    for policy, cell in cells.items():
        record("alloc", f"retry-storm.va.{policy}", cell)


def test_alloc_section_schema_validates():
    import json

    from perf_common import BENCH_FILE

    with open(BENCH_FILE) as handle:
        data = json.load(handle)
    problems = validate_section(data, "alloc")
    assert not problems, problems
