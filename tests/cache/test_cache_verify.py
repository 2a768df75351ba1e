"""The cached-YCSB verification passes: the ISSUE's acceptance histories.

The `cached-*` scenarios share one PID and one key range across every CN, so
zipf-hot lines ping-pong between caches while all three checkers ride
along.  The four parametrized runs are the acceptance bar: plain
write-through, plain write-back, **crash while lines are cached and
dirty**, and **migration while lines are cached and dirty** — each must
come back with the oracle clean, invariants intact, and the contended
atomic word's history linearizable.
"""

import pytest

from repro.cli import main
from repro.verify import run_scenario, scenario
from tests.engines import run_partitioned


@pytest.mark.parametrize("name", [
    "cached-through",
    "cached-back",
    "cached-back+crash",
    "cached-back+migrate",
    # Composed: write-back caching x QoS shaping x board crash.
    "cached-back+qos+crash",
], ids=["through", "back", "back-crash", "back-migrate", "back-qos-crash"])
def test_cached_ycsb_verifies_clean(name):
    result = run_scenario(scenario(name), seed=0)
    assert result.ok, result.problems()
    assert result.lin.ok is True
    assert result.history_len > 0


def test_cached_ycsb_actually_caches():
    result = run_scenario(scenario("cached-back"), seed=0)
    note = next(n for n in result.notes if n.startswith("cache["))
    hits = int(note.split("]: ")[1].split(" hits")[0])
    assert hits > 0, note


def test_cached_crash_run_spans_the_crash():
    result = run_scenario(scenario("cached-back+crash"), seed=0)
    assert any("crash window" in n for n in result.notes)


def test_cached_migrate_run_actually_migrates():
    result = run_scenario(scenario("cached-back+migrate"), seed=0)
    assert any("migrated" in n for n in result.notes), result.notes


@pytest.mark.parametrize("name", ["cached-back+crash",
                                  "cached-back+qos+crash"])
def test_cached_ycsb_partitioned_engine(name):
    result = run_partitioned(scenario(name), seed=0)
    assert result.ok, result.problems()
    flat = run_scenario(scenario(name), seed=0)
    assert flat.extras["fingerprint"] == result.extras["fingerprint"]


def test_cli_verify_cache_flag(capsys):
    assert main(["verify", "cache", "--ops", "12", "--clients", "2"]) == 0
    out = capsys.readouterr().out
    assert "cached-ycsb-a[through]" in out
    assert "cached-ycsb-a[back+crash]" in out
    assert "cached-ycsb-a[back+migrate]" in out


def test_cli_chaos_cache_flag(capsys):
    assert main(["chaos", "--cache", "--ops", "200"]) == 0
    out = capsys.readouterr().out
    assert "cache coherence under faults" in out
