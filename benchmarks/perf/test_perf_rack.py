"""Rack-tier benchmark: zipfian YCSB over the sharded tier with a
mid-traffic drain, plus a no-event baseline.

Two things are on trial:

* **engine throughput** — how many simulator events and workload ops
  per wall second the multi-switch rack configuration sustains (the
  number that decides whether 64-board runs stay tractable);
* **rebalance quality** — the post-drain p99 must recover to within
  1.5x of the pre-event p99 (the ISSUE acceptance bar): rate-limited
  batched migrations are supposed to protect the foreground tail.

Every run rides the full verification stack (shadow oracle +
linearizability), so the recorded numbers are for *checked* runs —
there is no faster unchecked mode to accidentally regress.

Results land in ``BENCH_perf.json`` under the ``rack`` section
(schema-checked by ``perf_common.validate_section``).  Set
``REPRO_BENCH_TINY=1`` (the CI bench-smoke job does) to shrink the
workload.
"""

from __future__ import annotations

import json
import os
import time

from perf_common import BENCH_FILE, record, validate_section

from repro.verify import run_scenario, scenario

TINY = bool(os.environ.get("REPRO_BENCH_TINY"))

BOARDS = 8
TORS = 2
CLIENTS = 64 if TINY else 256
OPS = 3 if TINY else 4


def _run_cell(script, partitioned=False, seed=0) -> dict:
    start = time.perf_counter()
    result = run_scenario(
        scenario("rack", boards=BOARDS, tors=TORS, clients=CLIENTS, ops=OPS,
                 script=script), seed=seed, partitioned=partitioned)
    wall_s = time.perf_counter() - start
    # Oracle, invariants, linearizer AND the scenario's recovery bar.
    assert result.problems() == []
    extras = result.extras
    cell = {
        "scenario": script,
        "boards": BOARDS,
        "tors": TORS,
        "clients": CLIENTS,
        "ops": extras["ops_attempted"],
        "migrations": extras["migrations"],
        "pre_p99_us": round(extras["pre_p99_ns"] / 1000, 3),
        "post_p99_us": round(extras["post_p99_ns"] / 1000, 3),
        "wall_s": round(wall_s, 4),
        "sim_ops_per_sec": round(extras["ops_ok"] / wall_s)
        if wall_s > 0 else 0,
        "events_per_sec": round(extras["events"] / wall_s)
        if wall_s > 0 else 0,
    }
    if script is not None and extras["pre_p99_ns"]:
        cell["recovery_ratio"] = round(extras["recovery_ratio"], 3)
    return cell


def test_rack_drain_tail_recovers_and_records():
    baseline = _run_cell(None)
    # The acceptance bar — rate-limited migration protects the tail — is
    # declared on the scenario and checked in _run_cell.
    drain = _run_cell("drain")
    assert drain["migrations"] >= 1
    assert drain["pre_p99_us"] > 0 and drain["post_p99_us"] > 0
    record("rack", "ycsb_baseline", baseline)
    record("rack", "ycsb_drain", drain)


def test_rack_partitioned_engine_records():
    cell = _run_cell("drain", partitioned=True)
    record("rack", "ycsb_drain_pdes", cell)


def test_rack_section_schema():
    with open(BENCH_FILE) as handle:
        data = json.load(handle)
    assert validate_section(data, "rack") == []
