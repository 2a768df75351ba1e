"""End-to-end verification harness runs at seed — everything must pass.

These are the acceptance runs: the MN atomic unit and Clio-KV produce
linearizable histories (including crash-spanning ones), the oracle sees
no unexplained bytes, and the ``repro verify`` CLI reports a clean bill.
"""

from pathlib import Path

import pytest

from repro.cli import main
from repro.verify import SUITES, run_scenario, scenario


@pytest.mark.parametrize("crash", [False, True],
                         ids=["steady", "crash-spanning"])
def test_sync_unit_history_linearizable(crash):
    result = run_scenario(scenario("sync+crash" if crash else "sync"),
                          seed=0)
    assert result.ok, result.problems()
    assert result.lin.ok is True
    assert result.history_len > 0
    assert result.report["atomics_tracked"] > 0
    assert result.violations == []


def test_sync_unit_histories_from_other_seeds():
    for seed in (1, 2):
        result = run_scenario(scenario("sync+crash", ops=20), seed=seed)
        assert result.ok, (seed, result.problems())


@pytest.mark.parametrize("crash", [False, True],
                         ids=["steady", "crash-spanning"])
def test_kv_history_linearizable(crash):
    result = run_scenario(scenario("kv+crash" if crash else "kv"), seed=0)
    assert result.ok, result.problems()
    assert result.lin.ok is True
    assert result.history_len > 0


def test_crash_run_actually_spans_a_crash():
    result = run_scenario(scenario("sync+crash"), seed=0)
    assert "crash" in " ".join(result.notes).lower()
    # Some ops must be indeterminate (in flight when the board died) for
    # the crash case to exercise the checker's drop-or-keep branch —
    # or at least the run recorded the crash window.
    assert result.report["atomics_tracked"] > 0


def test_verified_chaos_wrapper():
    result = run_scenario(scenario("chaos", schedule="board-crash", ops=200),
                          seed=1234)
    assert result.report
    assert result.problems() == []


def test_cli_verify_clean(capsys):
    assert main(["verify", "--ops", "12", "--clients", "2"]) == 0
    out = capsys.readouterr().out
    assert "sync-unit" in out
    assert "clio-kv" in out
    assert "oracle clean" in out


def test_cli_verify_no_crash(capsys):
    assert main(["verify", "--ops", "8", "--clients", "2",
                 "--no-crash"]) == 0


def test_every_verify_suite_runs_in_a_ci_matrix_row():
    ci = Path(__file__).parents[2] / ".github" / "workflows" / "ci.yml"
    commands = [line.split() for line in ci.read_text().splitlines()
                if "python -m repro verify" in line]
    assert commands   # the always-on core and chaos suites
    for suite in set(SUITES) - {"core", "chaos"}:
        assert any(suite in command for command in commands), suite
