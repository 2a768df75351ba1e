"""End-to-end verification harness runs at seed — everything must pass.

These are the acceptance runs: the MN atomic unit and Clio-KV produce
linearizable histories (including crash-spanning ones), the oracle sees
no unexplained bytes, and the ``repro verify`` CLI reports a clean bill.
"""

from pathlib import Path

import pytest

from repro.cli import main
from repro.cluster import ClioCluster
from repro.params import MB
from repro.verify import SUITES, run_scenario, scenario, spans_near


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


def test_spans_near_lists_the_spans_around_an_instant():
    """The context ``repro verify`` prints beside a violation: the spans
    within ``window_ns`` of an instant, in record order, at most
    ``limit``; an open span counts as running up to the instant."""
    cluster = ClioCluster(seed=1, mn_capacity=256 * MB, layers=("tracing",))
    thread = cluster.cn(0).process("mn0", pid=7).thread()
    alloc = cluster.env.process(thread.ralloc(4 * MB))
    cluster.run(until=alloc)
    cluster.env.process(thread.rread(alloc.value, 64))
    cluster.run(until=cluster.env.now + 1_000)      # the read is in flight
    tracer, now = cluster.tracer, cluster.env.now
    alloc_span = tracer.find_spans("request:alloc")[0]
    gap = now - alloc_span.end_ns

    def names(**kwargs):
        return [line.split()[1] for line in spans_near(tracer, now, **kwargs)]

    assert names(window_ns=gap) == ["request:alloc", "request:read"]
    assert names(window_ns=gap - 1) == ["request:read"]
    assert len(spans_near(tracer, now, window_ns=now)) == 5
    assert names(window_ns=now, limit=2) == ["request:alloc",
                                             "slowpath:alloc"]
    assert spans_near(tracer, now, window_ns=0) == [
        f"  span request:read [cn0] {alloc_span.end_ns}..None "
        f"{{'mn': 'mn0', 'pid': 7, 'va': {alloc.value}, 'size': 64}}"]
    assert spans_near(None, now) == []


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
