#!/usr/bin/env python3
"""Chaos recovery: crash the memory node mid-workload and watch it heal.

Runs a YCSB-style read/write mix on two compute nodes while a seeded
fault schedule fail-stops the CBoard at 1 ms and powers it back on at
2.5 ms.  The crash wipes every piece of volatile MN state (TLB, retry
ring, in-flight pipeline work) but the page table survives, so the
workload resumes against the same virtual addresses — the paper's
memory-node crash-recovery argument, observable:

* requests in the crash window fail with a *typed* ``RequestFailed``
  after bounded retransmission (never a hang);
* post-restart throughput recovers to within a few percent of the
  pre-crash rate once the TLB re-warms;
* the whole run is bit-identical for the same seed.

Run:  python examples/chaos_recovery.py
"""

from repro.verify import run_scenario, scenario


def main() -> None:
    print("== chaos recovery: board crash mid-YCSB ==")
    # Unverified: the checking stack is passive, so it changes nothing here.
    point = scenario("chaos", schedule="board-crash", verify=False)
    result = run_scenario(point, seed=1234)
    extras = result.extras
    crash_ns, restart_ns = point.scripts[0].window

    print(f"fault timeline: crash mn0 @ {crash_ns / 1e6:.1f} ms, "
          f"restart @ {restart_ns / 1e6:.1f} ms")
    for at_ns, kind, target, applied in extras["faults"]:
        print(f"  {at_ns / 1e6:6.2f} ms  {kind:<14} {target}"
              f"{'' if applied else '  (skipped)'}")

    # Each op: (worker, index, "read"|"write", start_ns, end_ns, status).
    ops = extras["ops"]
    completed = sum(1 for op in ops if op[-1] == "ok")
    print(f"\nworkload: {len(ops)} ops across {len(extras['cns'])} CNs — "
          f"{completed} ok, {len(ops) - completed} failed (typed)")

    # Error-rate summary around the crash window.
    during = [op for op in ops if crash_ns <= op[3] < restart_ns]
    failed_during = sum(1 for op in during if op[-1] != "ok")
    print(f"crash window: {len(during)} ops started, "
          f"{failed_during} failed with RequestFailed "
          f"(bounded retries, no hangs)")

    tput = extras["recovery"]
    print(f"\nthroughput before crash : {tput['pre_ops_per_sec']:>10,.0f} ops/s"
          f"  ({tput['pre_ops']} ops)")
    print(f"throughput after restart: {tput['post_ops_per_sec']:>10,.0f} ops/s"
          f"  ({tput['post_ops']} ops)")
    print(f"recovery                : {tput['recovery_ratio']:.1%} "
          f"of pre-crash rate")

    mn = extras["boards"]["mn0"]
    print(f"\nmn0 after the run: crashes={mn['crashes']} "
          f"restarts={mn['restarts']} "
          f"packets_dropped_dead={mn['packets_dropped_dead']} "
          f"responses_discarded={mn['responses_discarded']}")

    # The runner audits every scenario: a hung worker or a request that
    # neither completed nor failed is a problem.
    problems = result.problems()
    if problems:
        raise SystemExit("invariants violated: " + "; ".join(problems))
    print("invariants: every request completed or failed typed; "
          "counters balance; no worker hung")

    rerun = run_scenario(point, seed=1234)
    assert rerun.extras["fingerprint"] == extras["fingerprint"]
    print("determinism: same-seed rerun is bit-identical")


if __name__ == "__main__":
    main()
