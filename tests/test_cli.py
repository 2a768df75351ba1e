"""Tests for the command-line experiment runner."""

import argparse

import pytest

from repro.cli import _parse_size, build_parser, main
from repro.verify import run_scenario, scenario
from tests.engines import run_partitioned

KB = 1 << 10
MB = 1 << 20
GB = 1 << 30


def test_parse_size_units():
    assert _parse_size("64") == 64
    assert _parse_size("4KB") == 4 * KB
    assert _parse_size("16MB") == 16 * MB
    assert _parse_size("2GB") == 2 * GB
    assert _parse_size("1.5KB") == 1536
    assert _parse_size(" 8kb ") == 8 * KB
    assert _parse_size("128B") == 128


@pytest.mark.parametrize("command", ["latency", "goodput", "compare",
                                     "alloc", "metrics"])
@pytest.mark.parametrize("size", ["12XB", "0"])
def test_bad_size_is_a_usage_error(command, size, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main([command, "--size", size, "--ops", "1"]
             if command != "alloc" else [command, "--size", size])
    assert exit_info.value.code == 2
    assert "size must be a positive byte count" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    "goodput --size 8MB", "goodput --size 9MB", "goodput --threads 0",
    "latency --ops 0", "compare --ops 0", "ycsb --keys 0",
    "rack --clients 0", "chaos --ops 0", "rack --boards 1",
    "rack --boards 1 --scenario crash-mid-migration",
    "rack --boards 1 --scenario evict", "metrics --interval-us -1",
    "latency --size 1.9GB --ops 1",
    "metrics --ops 1 --size 1GB", "compare --size 3GB --backends rdma",
    "compare --size 3GB --backends legoos", "compare --size 3GB --backends cxl",
    "compare --size 33MB", "compare --size 65MB --backends clover",
    "alloc --size 9GB", "alloc --strategy buddy"])
def test_input_that_runs_nothing_or_crashes_is_a_usage_error(argv, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(argv.split())
    assert exit_info.value.code == 2
    if "goodput --size" in argv:
        message = "size must be under the 8MB region"
    elif "--size" in argv:
        message = "size must be at most"
    elif "--boards 1" in argv:
        message = "acts on mn1, so it needs --boards 2 or more"
    elif "--interval-us" in argv:
        message = "must be a non-negative integer"
    elif "--strategy" in argv:
        message = "invalid choice: 'buddy'"
    else:
        message = "must be a positive count"
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("scenario", ["add", "none"])
def test_rack_runs_on_one_board_when_the_script_spares_mn1(scenario,
                                                           capsys):
    assert main(["rack", "--boards", "1", "--clients", "8", "--ops", "2",
                 "--scenario", scenario]) == 0
    assert "rack: 1 boards" in capsys.readouterr().out


#: Every settable option of every subcommand ("" is ``repro`` itself), in
#: declaration order; ``--help`` and ``--version`` aside.  A change that
#: adds or removes a flag edits this table in its own diff.
OPTIONS = {
    "": ("--profile", "--seed"),
    "latency": ("--size", "--ops", "--write"),
    "goodput": ("--size", "--threads", "--ops", "--async"),
    "compare": ("--size", "--ops", "--backends", "--write"),
    "alloc": ("--size", "--churn", "--strategy", "--va-policy", "--ops"),
    "ycsb": ("--workload", "--keys", "--ops"),
    "chaos": ("--scenario", "--ops", "--cache"),
    "verify": ("suites", "--ops", "--clients", "--scenario", "--no-crash"),
    "rack": ("--boards", "--tors", "--clients", "--ops", "--scenario"),
    "metrics": ("--size", "--ops", "--interval-us", "--prefix",
                "--trace-out"),
}


def test_option_census():
    def options(parser):
        return tuple("/".join(action.option_strings) or action.dest
                     for action in parser._actions
                     if not isinstance(action, (argparse._HelpAction,
                                                argparse._VersionAction,
                                                argparse._SubParsersAction)))

    parser = build_parser()
    [commands] = [action.choices for action in parser._actions
                  if isinstance(action, argparse._SubParsersAction)]
    census = {"": options(parser)}
    census.update((name, options(command))
                  for name, command in commands.items())
    assert census == OPTIONS


def test_parser_requires_command():
    parser = build_parser()
    with pytest.raises(SystemExit):
        parser.parse_args([])


def test_unknown_profile_rejected():
    with pytest.raises(SystemExit):
        main(["--profile", "warp-drive", "latency", "--ops", "1"])


def test_latency_command(capsys):
    assert main(["latency", "--size", "16", "--ops", "50"]) == 0
    out = capsys.readouterr().out
    assert "median us" in out
    assert "Clio read latency" in out


def test_latency_write_mode(capsys):
    assert main(["latency", "--size", "64", "--ops", "30", "--write"]) == 0
    assert "write latency" in capsys.readouterr().out


def test_compare_command(capsys):
    assert main(["compare", "--size", "16", "--ops", "60"]) == 0
    out = capsys.readouterr().out
    for backend in ("clio", "cxl", "rdma", "herd", "herd-bf", "legoos",
                    "clover"):
        assert backend in out


def test_compare_runs_a_value_over_one_clover_slot(capsys):
    assert main(["compare", "--size", "4KB", "--ops", "20"]) == 0
    assert "clover" in capsys.readouterr().out


def test_compare_backend_subset_and_write(capsys):
    assert main(["compare", "--backends", "clio,cxl", "--size", "64",
                 "--ops", "30", "--write"]) == 0
    out = capsys.readouterr().out
    assert "write median us" in out
    assert "rdma" not in out


def test_compare_rejects_unknown_backend():
    with pytest.raises(SystemExit):
        main(["compare", "--backends", "clio,nvme-of", "--ops", "10"])


def test_alloc_command(capsys):
    assert main(["alloc", "--size", "16MB"]) == 0
    out = capsys.readouterr().out
    assert "Clio VA us" in out and "RDMA MR reg" in out


def test_ycsb_command(capsys):
    assert main(["ycsb", "--workload", "C", "--keys", "50",
                 "--ops", "50"]) == 0
    assert "YCSB-C" in capsys.readouterr().out


def test_ycsb_rejects_unknown_mix():
    with pytest.raises(SystemExit):
        main(["ycsb", "--workload", "Z", "--keys", "10", "--ops", "10"])


def test_goodput_command(capsys):
    assert main(["goodput", "--threads", "1", "--ops", "40"]) == 0
    assert "goodput_Gbps" in capsys.readouterr().out


def test_asic_profile_runs(capsys):
    assert main(["--profile", "asic", "latency", "--ops", "30"]) == 0
    assert "asic" in capsys.readouterr().out


def test_chaos_command(capsys):
    # Enough ops that the workload spans the 1 ms crash and the restart.
    assert main(["--seed", "3", "chaos", "--scenario", "board-crash",
                 "--ops", "1200"]) == 0
    out = capsys.readouterr().out
    assert "board-crash" in out
    assert "invariants: all hold" in out
    assert "crash recovery" in out


def test_chaos_link_flap_flat_matches_partitioned():
    point = scenario("chaos", schedule="link-flap", ops=300, verify=False)
    flat = run_scenario(point, seed=3)
    assert flat.problems() == []
    pdes = run_partitioned(point, seed=3)
    assert pdes.extras["fingerprint"] == flat.extras["fingerprint"]


def test_chaos_rejects_unknown_scenario():
    with pytest.raises(SystemExit):
        main(["chaos", "--scenario", "gremlins"])


def test_version_flag(capsys):
    import repro

    with pytest.raises(SystemExit) as excinfo:
        main(["--version"])
    assert excinfo.value.code == 0
    out = capsys.readouterr().out
    assert repro.__version__ in out
    assert out.startswith("repro ")


def test_metrics_command(capsys):
    assert main(["metrics", "--ops", "20", "--size", "64"]) == 0
    out = capsys.readouterr().out
    assert "cboard.mn0.requests_served" in out
    assert "transport.cn0.requests_issued" in out
    assert "attempt:read" in out            # span summary present


def test_metrics_command_trace_export(tmp_path, capsys):
    import json

    trace_path = tmp_path / "trace.json"
    assert main(["metrics", "--ops", "10", "--interval-us", "20",
                 "--trace-out", str(trace_path)]) == 0
    out = capsys.readouterr().out
    assert "timeseries" in out
    assert str(trace_path) in out
    trace = json.loads(trace_path.read_text())
    events = trace["traceEvents"]
    assert events
    for event in events:
        assert "name" in event and "ph" in event
        if event["ph"] != "M":
            assert isinstance(event["ts"], (int, float))
    phases = {event["ph"] for event in events}
    assert "X" in phases        # completed spans
    assert "C" in phases        # sampled counters


def test_metrics_command_prefix_filter(capsys):
    assert main(["metrics", "--ops", "10", "--prefix", "cboard.mn0"]) == 0
    out = capsys.readouterr().out
    assert "cboard.mn0.requests_served" in out
    assert "transport.cn0" not in out


def test_verify_row_with_violations_reads_violated(monkeypatch, capsys):
    """An undecided linearizability check does not hide a violation."""
    import repro.verify
    from repro.verify.harness import VerifyRunResult
    from repro.verify.invariants import Violation
    from repro.verify.linearize import LinearizeResult

    def run_scenario(point, **_):
        return VerifyRunResult(
            name="sync", lin=LinearizeResult(ok=None), history_len=1500,
            violations=[Violation(at_ns=10, invariant="frames",
                                  subject="mn0", detail="leak")])

    monkeypatch.setattr(repro.verify, "run_scenario", run_scenario)
    assert main(["verify", "--ops", "1", "--no-crash"]) == 1
    rows = [line for line in capsys.readouterr().out.splitlines()
            if line.startswith("sync")]
    assert rows and all("VIOLATED" in row and "undecided" not in row
                        for row in rows)
