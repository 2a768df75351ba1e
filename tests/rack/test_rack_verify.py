"""End-to-end rack acceptance: zipfian YCSB under membership chaos.

Every run rides the full checking stack — shadow oracle on the data
path, linearizability on the shared sync word — so a pass here means
no lost updates, no stale reads, and a linearizable atomic history
across live migration, drains, crashes mid-migration, and lease-expiry
evictions.
"""

import os

import pytest

from repro.cli import main
from repro.verify import RACK_SCENARIOS, run_scenario, scenario
from tests.engines import run_partitioned


def test_rack_ycsb_clean_run_is_oracle_clean_and_linearizable():
    result = run_scenario(scenario("rack", clients=24, ops=4), seed=2)
    assert result.ok, result.problems()
    assert result.extras["ops_ok"] == result.extras["ops_attempted"] == 96
    assert result.lin is not None and result.lin.ok
    assert result.history_len > 0


@pytest.mark.parametrize("script", RACK_SCENARIOS)
def test_rack_ycsb_survives_membership_chaos(script):
    result = run_scenario(scenario(f"rack+{script}", clients=24, ops=4),
                          seed=5)
    assert result.ok, (script, result.problems())
    extras = result.extras
    if script in ("drain", "add", "crash-mid-migration"):
        # These scenarios move data; the copies must actually happen.
        assert extras["migrations"] + extras["aborted_migrations"] >= 1
    if script == "evict":
        assert extras["evictions"] >= 1
    if script == "crash-mid-migration":
        assert extras["aborted_migrations"] >= 1
    assert extras["epoch"] >= 1


@pytest.mark.parametrize("name", ["rack", "rack+drain",
                                  "rack+crash-mid-migration"])
def test_rack_ycsb_bit_identical_flat_vs_partitioned(name):
    point = scenario(name, clients=24, ops=4)
    flat = run_scenario(point, seed=11)
    pdes = run_partitioned(point, seed=11)
    assert flat.ok and pdes.ok
    assert flat.extras["fingerprint"] == pdes.extras["fingerprint"]
    assert flat.extras["placement"] == pdes.extras["placement"]


def test_rack_tail_recovers_after_drain():
    result = run_scenario(scenario("rack+drain", boards=8, clients=128,
                                   ops=4), seed=0)
    assert result.ok, result.problems()
    extras = result.extras
    assert extras["pre_p99_ns"] > 0 and extras["post_p99_ns"] > 0
    assert extras["post_p99_ns"] <= 1.5 * extras["pre_p99_ns"]


@pytest.mark.parametrize("script", ["none", "drain"])
def test_cli_rack_throughput_is_ops_over_the_traffic_span(script, capsys):
    """"sim Mops/s" divides by the op log's first-start -> last-end span,
    not by when the membership event settled."""
    assert main(["--seed", "2", "rack", "--boards", "8", "--clients", "24",
                 "--ops", "4", "--scenario", script]) == 0
    row = capsys.readouterr().out.splitlines()[3].split("|")
    extras = run_scenario(
        scenario("rack", clients=24, ops=4,
                 script=None if script == "none" else script),
        seed=2).extras
    assert 0 < extras["span_ns"] < extras["sim_now_ns"]
    assert extras["span_ns"] != extras["event_done_ns"]
    assert int(row[0]) == extras["ops_ok"]
    assert row[2].strip() == \
        f"{extras['ops_ok'] / extras['span_ns'] * 1e9 / 1e6:.2f}"


@pytest.mark.skipif(not os.environ.get("REPRO_RACK_64"),
                    reason="64-board acceptance run; set REPRO_RACK_64=1")
def test_rack_64_boards_1024_clients_acceptance():
    """The full-scale bar: 64 boards, 4 ToRs, 1024 zipfian clients, a
    drain mid-traffic, oracle-clean, linearizable, identical on both
    engines."""
    point = scenario("rack+drain", boards=64, tors=4, cns=8, clients=1024,
                     ops=2)
    flat = run_scenario(point, seed=0)
    assert flat.ok, flat.problems()
    pdes = run_partitioned(point, seed=0)
    assert pdes.ok, pdes.problems()
    assert flat.extras["fingerprint"] == pdes.extras["fingerprint"]
