"""``tools/pairs.py`` on a two-commit repository whose benchmark is a stub.

The stub ``benchmarks/e2e/run.py`` prints one fixed JSON line per run,
its numbers a function of the commit and the seed, so the whole report
is known in advance: its shape, the alternation, the ratios and the
exact sign test.
"""

import re
import subprocess
import sys
from pathlib import Path

import pytest

from tools.pairs import quartiles, sign_test_p, steal_jiffies

ROOT = Path(__file__).resolve().parent.parent

STUB = '''import json, sys
seed = int(sys.argv[sys.argv.index("--seed") + 1])
ops, rss = {ops}, {rss}
print("noise the tool skips")
print(json.dumps({{"correct": True, "attempted": 10, "failed": 0, "metrics": {{
    "host_ops_per_s": {{"value": ops + seed, "unit": "ops/s"}},
    "peak_rss_mb": {{"value": rss, "unit": "MB"}},
    "setup_s": {{"value": 0.25, "unit": "s"}}}}}}))
'''

BENCHMARK = """{"end_to_end": [
 {"name": "host_ops_per_s", "unit": "ops/s", "better": "higher"},
 {"name": "peak_rss_mb", "unit": "MB", "better": "lower"},
 {"name": "setup_s", "unit": "s", "better": "lower"}]}
"""


def _commit(repo: Path, ops: int, rss: int) -> None:
    run = repo / "benchmarks" / "e2e" / "run.py"
    run.parent.mkdir(parents=True, exist_ok=True)
    run.write_text(STUB.format(ops=ops, rss=rss))
    (repo / "BENCHMARK.json").write_text(BENCHMARK)
    subprocess.run(["git", "add", "-A"], cwd=repo, check=True)
    subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@t",
                    "commit", "-qm", f"ops {ops}"], cwd=repo, check=True)


def test_the_sign_test_is_exact():
    assert sign_test_p(10, 0) == 2 / 1024
    assert sign_test_p(9, 1) == pytest.approx(22 / 1024)
    assert sign_test_p(0, 3) == sign_test_p(3, 0) == 0.25
    assert sign_test_p(0, 0) == sign_test_p(5, 5) == 1.0
    assert quartiles([4.0]) == (4.0, 4.0, 4.0)
    assert quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == (2.0, 3.0, 4.0)


#: ``/proc/stat`` as Linux writes it: the aggregate ``cpu`` line's values
#: are user, nice, system, idle, iowait, irq, softirq, steal, guest and
#: guest_nice jiffies.
PROC_STAT = """cpu  2255 34 2290 22625563 6290 127 456 9173 0 0
cpu0 1132 34 1441 11311718 3675 127 438 4597 0 0
cpu1 1123 0 849 11313845 2614 0 18 4576 0 0
intr 114930548 113199788 3 0 5 263 0 4 [... 0 0 0]
ctxt 1990473
btime 1062191376
"""


def test_steal_is_read_from_the_aggregate_cpu_line():
    assert steal_jiffies(PROC_STAT) == 9173
    # A kernel before 2.6.11 wrote no steal column; no cpu line at all.
    assert steal_jiffies("cpu  2255 34 2290 22625563 6290 127 456\n") is None
    assert steal_jiffies("intr 1 2 3\nctxt 4\n") is None


def test_pairs_alternate_and_report_every_metric(tmp_path):
    subprocess.run(["git", "init", "-q", str(tmp_path)], check=True)
    _commit(tmp_path, ops=100, rss=10)
    _commit(tmp_path, ops=120, rss=11)
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "pairs.py"), "HEAD~1", "HEAD",
         "--workload", "w", "--pairs", "10", "--seconds", "1", "--seed", "5"],
        cwd=tmp_path, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    # Each run's host noise: ten steal counts (or n/a), CPU seconds and
    # ops per CPU second per side, whatever the host did meanwhile.
    noise = lines[5:14]
    del lines[5:14]
    assert noise[0] == "steal jiffies (host, over each run)"
    assert noise[3] == "child CPU s (each run's own)"
    assert noise[6] == "ops per child CPU s (attempted / cpu_s)"
    for row, side, cell in ((1, "base", r"(\d+|n/a)"),
                            (2, "change", r"(\d+|n/a)"),
                            (4, "base", r"[\d.e+-]+"),
                            (5, "change", r"[\d.e+-]+"),
                            (7, "base", r"[\d.e+-]+"),
                            (8, "change", r"[\d.e+-]+")):
        assert re.fullmatch(rf"  {side:6}  {cell}( {cell}){{9}}", noise[row])
    # Each run attempted 10 ops: its rate per CPU second is 10 / cpu_s.
    for cpu_row, rate_row in ((4, 7), (5, 8)):
        for cpu_s, rate in zip(noise[cpu_row].split()[1:],
                               noise[rate_row].split()[1:]):
            assert float(rate) == pytest.approx(10 / float(cpu_s), rel=1e-4)
    assert lines[0].startswith("base    ") and lines[0].endswith("(HEAD~1)")
    assert lines[1].startswith("change  ") and lines[1].endswith("(HEAD)")
    rule = "  claim rule (10+ pairs, wins >= 9/10, median gap > base IQR): "
    assert lines[2:] == [
        "workload w, 10 pairs of --seconds 1 --trace 0, seeds 5 6 7 8 9 10 "
        "11 12 13 14, first base change base change base change base change "
        "base change",
        "base failed ops 0 of 100",
        "change failed ops 0 of 100",
        "host_ops_per_s (ops/s, higher is better)",
        "  base    105 106 107 108 109 110 111 112 113 114",
        "          median 109.5  IQR 4.5",
        "  change  125 126 127 128 129 130 131 132 133 134",
        "          median 129.5  IQR 4.5",
        "  change/base  median 1.18265  range 1.17544..1.19048",
        "  wins 10/10  losses 0  sign-test p 0.001953",
        rule + "holds",
        "peak_rss_mb (MB, lower is better)",
        "  base    " + " ".join(["10"] * 10),
        "          median 10  IQR 0",
        "  change  " + " ".join(["11"] * 10),
        "          median 11  IQR 0",
        "  change/base  median 1.1  range 1.1..1.1",
        "  wins 0/10  losses 10  sign-test p 0.001953",
        rule + "fails",
        "setup_s (s, lower is better)",
        "  base    " + " ".join(["0.25"] * 10),
        "          median 0.25  IQR 0",
        "  change  " + " ".join(["0.25"] * 10),
        "          median 0.25  IQR 0",
        "  change/base  median 1  range 1..1",
        "  wins 0/10  losses 0  sign-test p 1",     # ties count for neither
        rule + "fails",
    ]
    # The worktrees are gone with the run.
    listed = subprocess.run(["git", "worktree", "list"], cwd=tmp_path,
                            capture_output=True, text=True, check=True)
    assert len(listed.stdout.splitlines()) == 1
