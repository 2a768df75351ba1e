"""Contract of the end-to-end benchmark.  Run it explicitly::

    python3 -m pytest benchmarks/e2e -q

It is not part of tier-1 (``testpaths`` is ``tests``): it runs every
workload for real and takes a few minutes.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
from collections import Counter

import pytest

from metrics import END_TO_END, LAYERS, PER_LAYER, quantile_ns
from run import ROOT, SLICES, spawn
from workloads import WORKLOADS

RUN = os.path.join(ROOT, "benchmarks", "e2e", "run.py")
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


@pytest.fixture(scope="module")
def declared() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def run_workload(workload: str, trace: int, seed: int = 0) -> dict:
    done = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_benchmark_json_matches_the_declarations(declared):
    assert set(declared) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}
    assert declared["paths"] == ["benchmarks/e2e"]
    assert [w["name"] for w in declared["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"], m["better"], m["bound"])
            for m in declared["end_to_end"]] == [row[:4] for row in END_TO_END]
    # The declared bound has to cover ten different seeds on a noisy host;
    # the review bound compare.py applies is never the looser of the two.
    assert all(review <= bound for _, _, _, bound, review, _ in END_TO_END)
    assert [(m["name"], m["unit"], m["better"])
            for m in declared["per_layer"]] == [row[:3] for row in PER_LAYER]
    names = ([w["name"] for w in declared["workloads"]]
             + [m["name"] for m in declared["end_to_end"]]
             + [m["name"] for m in declared["per_layer"]])
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    assert all(UNIT.fullmatch(m["unit"])
               for m in declared["end_to_end"] + declared["per_layer"])
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"]
               for w in declared["workloads"])
    assert any(m["name"] == "setup_s" and m["unit"] == "s"
               and m["better"] == "lower" for m in declared["end_to_end"])
    assert all(0 < m["bound"] <= 0.25 for m in declared["end_to_end"])


def test_quantile_interpolates_inside_the_bin():
    import statistics
    samples = [372] * 7 + [373] * 2 + [400]
    assert quantile_ns(Counter(samples), 0.5) == pytest.approx(
        statistics.median_grouped(samples, interval=1))
    assert quantile_ns(Counter({372: 10}), 0.5) == 372.0
    assert quantile_ns(Counter([1, 2, 3, 4]), 0.5) == 2.5
    assert quantile_ns(Counter({10: 99, 50: 1}), 0.99) == 10.5


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_end_to_end_run_reports_every_metric(workload, declared):
    result = run_workload(workload, trace=0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    assert ({name: cell["unit"] for name, cell in result["metrics"].items()}
            == {m["name"]: m["unit"] for m in declared["end_to_end"]})
    assert all(cell["value"] > 0 for cell in result["metrics"].values())


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_per_layer_run_reports_every_metric(workload, declared):
    result = run_workload(workload, trace=1)
    assert result["correct"] is True and result["failed"] == 0
    metrics = result["metrics"]
    assert ({name: cell["unit"] for name, cell in metrics.items()}
            == {m["name"]: m["unit"] for m in declared["per_layer"]})
    shares = sum(metrics[f"{layer}.self_share"]["value"] for layer in LAYERS)
    assert abs(shares - 1.0) <= 0.01
    if metrics["transport.requests_per_op"]["value"]:
        assert metrics["trace.sim_sum_error_ns"]["value"] <= 1.0


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_same_seed_repeats_exactly_and_another_seed_does_not(workload):
    first = spawn("timed", workload, seed=3, seconds=1, slices=2)
    again = spawn("timed", workload, seed=3, seconds=1, slices=2)
    other = spawn("timed", workload, seed=4, seconds=1, slices=2)
    for key in ("sim", "digest", "counters"):
        assert first[key] == again[key], key
    assert [(s["ops"], s["events"], s["sim_ns"]) for s in first["slices"]] \
        == [(s["ops"], s["events"], s["sim_ns"]) for s in again["slices"]]
    assert other["digest"] != first["digest"]
    assert other["sim"].keys() == first["sim"].keys()
    assert other["counters"].keys() == first["counters"].keys()
    assert len(first["slices"]) == 2


def test_failed_check_exits_non_zero(monkeypatch, capsys):
    import run
    monkeypatch.setattr(run, "run_end_to_end", lambda *args: {
        "problems": ["1 of 10 ops failed"], "attempted": 10, "failed": 1,
        "metrics": {}})
    assert run.run_one("echo_read64", 0, 1.0, 0) == 1
    assert json.loads(capsys.readouterr().out)["correct"] is False


def test_full_command_prints_the_declared_names(declared, tmp_path):
    """Rows of the full command == BENCHMARK.json, plus failed_ops_share.

    ``failed_ops_share`` is printed and compared but not declared: its
    good value is 0, and a declared metric's bound is a share of its
    median (README, "End-to-end metrics").
    """
    out = tmp_path / "run.json"
    done = subprocess.run([sys.executable, RUN, "--seconds", "1",
                           "--out", str(out)],
                          capture_output=True, text=True, cwd=ROOT)
    assert done.returncode == 0, done.stdout + done.stderr
    printed: dict = {}
    for line in done.stdout.splitlines():
        if not line.startswith("#"):
            workload, metric, value, unit = line.split()[:4]
            float(value)
            printed.setdefault(workload, {})[metric] = unit
    expected = {m["name"]: m["unit"]
                for m in declared["end_to_end"] + declared["per_layer"]}
    expected["failed_ops_share"] = "ratio"
    assert list(printed) == [w["name"] for w in declared["workloads"]]
    assert all(rows == expected for rows in printed.values())
    document = json.loads(out.read_text())
    assert {"git_sha", "nproc", "python", "platform",
            "spin_loop_per_s"} <= set(document["host"])
    assert document["seed"] == 0 and document["wall_s"] > 0
    assert all(entry["end_to_end"]["slices"] == SLICES
               and entry["end_to_end"]["failed"] == 0
               for entry in document["workloads"].values())


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "benchmarks", "e2e"),
                    tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload",
         "echo_read64", "--seed", "0", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout == ""
