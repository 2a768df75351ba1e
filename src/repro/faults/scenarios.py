"""Canned chaos scenarios: a workload plus a fault schedule plus checks.

A chaos run is a :class:`~repro.verify.runner.Scenario` like any other:
the :class:`ChaosMix` workload (a YCSB-style read/write mix on every CN)
under one of the fault :data:`SCENARIOS` scripts, executed by
:func:`~repro.verify.runner.run_scenario`.  :func:`run_chaos` returns the
run's :class:`ChaosReport`, which audits the wreckage:

* **liveness** — every worker finished before the deadline (no hangs);
* **typed completion** — every operation either succeeded or raised a
  typed error (``RequestFailed`` / ``RemoteAccessError``), never an
  untyped one;
* **counter balance** — per CN, requests issued equals completed plus
  failed once the run drains;
* **determinism** — :meth:`ChaosReport.fingerprint` is bit-identical
  across same-seed runs.

Workers pin their PIDs explicitly: PIDs feed the page-table hash, so
drawing them from the shared global counter would make fingerprints
depend on how many processes earlier tests created.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

from repro.clib.client import RemoteAccessError
from repro.faults.schedule import FaultSchedule
from repro.params import MB, MS, US, CacheParams
from repro.transport.clib_transport import RequestFailed
from repro.verify.runner import (
    Scenario,
    Script,
    Workload,
    crash_board,
    run_scenario,
    verify_params,
)


@dataclass(frozen=True)
class OpRecord:
    """One workload operation as observed by the worker."""

    worker: int
    index: int
    op: str           # "read" | "write"
    started_ns: int
    finished_ns: int
    status: str       # "ok" | "request_failed" | "remote_error"


@dataclass
class ChaosReport:
    """Everything a chaos run produced, in deterministic form."""

    scenario: str
    seed: int
    finished: bool                      # all workers completed by deadline
    now_ns: int
    ops: list[OpRecord]
    faults: tuple                       # injector.applied_fingerprint()
    cn_counters: dict[str, dict]
    board_counters: dict[str, dict]
    crash_window: Optional[tuple[int, int]] = None  # (crash_ns, restart_ns)
    notes: list[str] = field(default_factory=list)
    #: ClusterVerifier.report() when the run was verified; None otherwise.
    #: Deliberately NOT part of fingerprint(): verification is passive, and
    #: the fingerprint must stay bit-identical with it on or off.
    verification: Optional[dict] = None
    #: Per-CN cache + directory counters when the run was cached; None
    #: otherwise.  Not in fingerprint(): the cached and uncached data
    #: paths differ by design, and the op records already pin cached-run
    #: determinism.
    cache_counters: Optional[dict] = None

    # -- derived ---------------------------------------------------------------

    @property
    def completed_ops(self) -> int:
        return sum(1 for op in self.ops if op.status == "ok")

    @property
    def failed_ops(self) -> int:
        return sum(1 for op in self.ops if op.status != "ok")

    def fingerprint(self) -> tuple:
        """Hashable digest that must be bit-identical for the same seed."""
        return (
            self.scenario, self.seed, self.finished, self.now_ns,
            tuple((o.worker, o.index, o.op, o.started_ns, o.finished_ns,
                   o.status) for o in self.ops),
            self.faults,
            tuple(sorted((name, tuple(sorted(c.items())))
                         for name, c in self.cn_counters.items())),
        )

    def check_invariants(self) -> list[str]:
        """Audit the run; returns a list of violations (empty == healthy)."""
        problems = []
        if not self.finished:
            problems.append("workload hung: not all workers finished")
        for op in self.ops:
            if op.status not in ("ok", "request_failed", "remote_error"):
                problems.append(
                    f"op {op.worker}/{op.index} ended untyped: {op.status}")
            if op.finished_ns < op.started_ns:
                problems.append(
                    f"op {op.worker}/{op.index} finished before it started")
        for name, counters in self.cn_counters.items():
            issued = counters["requests_issued"]
            settled = (counters["requests_completed"]
                       + counters["requests_failed"])
            if issued != settled:
                problems.append(
                    f"{name}: {issued} issued != {settled} settled "
                    "(a request neither completed nor failed)")
        if self.verification is not None:
            if self.verification["read_mismatches"]:
                problems.extend(self.verification["mismatch_details"])
            if self.verification["epoch_violations"]:
                problems.extend(self.verification["epoch_details"])
            if self.verification["invariant_violations"]:
                problems.extend(self.verification["violations"])
        return problems

    def phase_throughput(self, settle_ns: int = 100 * US) -> Optional[dict]:
        """Ops/s before the crash vs. after the restart (+ settle margin).

        Only meaningful for scenarios with a single crash window; returns
        None otherwise or when either phase saw no completed ops.
        """
        if self.crash_window is None:
            return None
        crash_ns, restart_ns = self.crash_window
        pre = [o for o in self.ops
               if o.status == "ok" and o.finished_ns < crash_ns]
        post_start = restart_ns + settle_ns
        post = [o for o in self.ops
                if o.status == "ok" and o.started_ns >= post_start]
        if not pre or not post:
            return None
        pre_span = max(o.finished_ns for o in pre) - min(o.started_ns
                                                         for o in pre)
        post_span = max(o.finished_ns for o in post) - min(o.started_ns
                                                           for o in post)
        if pre_span <= 0 or post_span <= 0:
            return None
        pre_tput = len(pre) * 1_000_000_000 / pre_span
        post_tput = len(post) * 1_000_000_000 / post_span
        return {
            "pre_ops": len(pre), "post_ops": len(post),
            "pre_ops_per_sec": pre_tput, "post_ops_per_sec": post_tput,
            "recovery_ratio": post_tput / pre_tput,
        }


# -- fault scripts -------------------------------------------------------------

SCENARIOS: dict[str, Script] = {
    "board-crash": crash_board(1 * MS, 1_500 * US),
    "link-flap": Script("link-flap", faults=lambda seed: (
        FaultSchedule()
        .link_down(1 * MS, "cn1", duration_ns=1 * MS)
        .link_down(3 * MS, "cn1", duration_ns=500 * US))),
    "slowpath-stall": Script("slowpath-stall", faults=lambda seed: (
        FaultSchedule().stall_slowpath(500 * US, "mn0", 300 * US))),
    "loss-burst": Script("loss-burst", faults=lambda seed: (
        FaultSchedule()
        .loss_burst(1 * MS, "cn0", 1 * MS, rate=0.3)
        .corruption_burst(2 * MS, "cn1", 500 * US, rate=0.2))),
    "random": Script("random", faults=lambda seed: FaultSchedule.random(
        seed, duration_ns=4 * MS, boards=["mn0"], nodes=["cn0", "cn1"])),
}


# -- the workload --------------------------------------------------------------


@dataclass(frozen=True)
class ChaosMix(Workload):
    """YCSB-A-style mix: each worker does ``ops`` 64-byte reads/writes at
    seeded offsets in its own region, tolerating typed failures and
    recording every op.

    With the caching layer on — and so coherence traffic actually
    crosses CNs — the workload flips from per-worker regions to ONE
    shared region (worker 0 allocates, everyone hammers it under the same
    PID).  The faults then land while lines are cached (and dirty, under
    write-back): recalls race crashes, invalidations ride flapping links.
    """

    schedule: str
    ops: int
    region_bytes: int
    rng_name = "faults/chaos"
    #: PID base for chaos workers; far from anything the global counter
    #: issues.
    PID_BASE = 9001
    IO_BYTES = 64

    def clients(self, ctx):
        ctx.region_ready = ctx.env.event()
        return super().clients(ctx)

    def client(self, ctx, index: int):
        env, io_bytes = ctx.env, self.IO_BYTES
        shared = ctx.cluster.cache_dir is not None
        thread = ctx.cluster.cn(index).process(
            "mn0", pid=self.PID_BASE + (0 if shared else index)).thread()
        wrng = ctx.rng.fork(f"worker{index}")
        if shared and index > 0:
            yield ctx.region_ready
            va = ctx.shared_va
        else:
            va = yield from thread.ralloc(self.region_bytes)
            if shared:
                ctx.shared_va = va
                ctx.region_ready.succeed()
        payload = bytes((index + 1,)) * io_bytes
        span = self.region_bytes - io_bytes
        for op_index in range(self.ops):
            offset = (wrng.uniform_int(0, span // io_bytes)) * io_bytes
            is_read = wrng.uniform() < 0.5
            started = env.now
            status = "ok"
            try:
                if is_read:
                    yield from thread.rread(va + offset, io_bytes)
                else:
                    yield from thread.rwrite(va + offset, payload)
            except RequestFailed:
                status = "request_failed"
            except RemoteAccessError:
                status = "remote_error"
            ctx.history.append(OpRecord(
                index, op_index, "read" if is_read else "write", started,
                env.now, status))

    def summarize(self, ctx):
        cluster = ctx.cluster
        report = ChaosReport(
            scenario=self.schedule, seed=ctx.seed, finished=ctx.finished,
            now_ns=ctx.env.now,
            ops=sorted(ctx.history, key=lambda o: (o.worker, o.index)),
            faults=sum((injector.applied_fingerprint()
                        for injector in ctx.injectors), ()),
            cn_counters={
                node.name: {
                    "requests_issued": node.transport.requests_issued,
                    "requests_completed": node.transport.requests_completed,
                    "requests_failed": node.transport.requests_failed,
                    "total_retries": node.transport.total_retries,
                } for node in cluster.cns
            },
            board_counters={board.name: board.stats()
                            for board in cluster.mns},
            crash_window=next((script.window
                               for script in ctx.scenario.scripts
                               if script.window is not None), None),
        )
        if cluster.cache_dir is not None:
            counters = {
                node.name: {
                    "hits": node.cache.hits, "misses": node.cache.misses,
                    "evictions": node.cache.evictions,
                    "invalidations": node.cache.invalidations,
                    "writebacks": node.cache.writebacks,
                    "flush_retries": node.cache.flush_retries,
                } for node in cluster.cns
            }
            directory = cluster.cache_dir
            counters["dir"] = {
                "requests_served": directory.requests_served,
                "fills": directory.fills,
                "write_txns": directory.write_txns,
                "recalls": directory.recalls,
                "downgrades": directory.downgrades,
                "invals_sent": directory.invals_sent,
                "inval_retries": directory.inval_retries,
            }
            report.cache_counters = counters
        ctx.findings.extend(report.check_invariants())
        return {"chaos": report, "fingerprint": report.fingerprint()}, []


def chaos_scenario(schedule: str = "board-crash", ops: int = 1200,
                   region_bytes: int = 4 * MB, verify: bool = True,
                   cached: Optional[str] = None) -> Scenario:
    """The chaos mix on two CNs under the named fault script.

    ``cached="through"`` / ``cached="back"`` opts every CN into the
    hot-page cache (and the workload into one shared region).
    """
    if schedule not in SCENARIOS:
        raise ValueError(f"unknown scenario {schedule!r}; "
                         f"pick one of {sorted(SCENARIOS)}")
    params = verify_params()
    if cached is not None:
        params = replace(params, cache=CacheParams(policy=cached,
                                                   capacity_lines=64))
    return Scenario(
        f"chaos:{schedule}", ChaosMix(schedule, ops, region_bytes),
        cluster=dict(num_cns=2, mn_capacity=256 * MB), params=params,
        layers=("caching",) if cached is not None else (),
        scripts=(SCENARIOS[schedule],), deadline_ns=200 * MS, verify=verify)


def run_chaos(scenario: str = "board-crash", seed: int = 1234,
              ops_per_worker: int = 1200, region_bytes: int = 4 * MB,
              verify: bool = False, cached: Optional[str] = None,
              partitioned: bool = False) -> ChaosReport:
    """Run one chaos scenario end to end and return its report.

    With ``verify=True`` the full checking stack (shadow oracle +
    invariant sweeps) rides along; checking is passive, so the report's
    fingerprint is bit-identical either way, and its findings land in
    ``report.verification`` (audited by ``check_invariants``).
    ``partitioned=True`` runs on the partitioned engine; the fingerprint
    must not change.  Per-CN and directory counters of a ``cached`` run
    land in ``report.cache_counters``.
    """
    result = run_scenario(
        chaos_scenario(scenario, ops=ops_per_worker,
                       region_bytes=region_bytes, verify=verify,
                       cached=cached),
        seed=seed, partitioned=partitioned)
    report = result.extras["chaos"]
    if verify:
        report.verification = result.report
    return report


def run_rack_chaos(scenario: str = "drain", seed: int = 1234,
                   boards: int = 8, tors: int = 2,
                   clients: int = 64, ops_per_client: int = 4,
                   partitioned: bool = False):
    """Run one rack membership-chaos scenario; returns a
    :class:`~repro.verify.harness.VerifyRunResult`.

    Rack membership events (drains, joins, crashes mid-migration,
    lease-expiry evictions) are chaos in the same spirit as the schedules
    above, over the rack zipfian YCSB with the full checking stack
    attached.  Scenarios are ``repro.verify.RACK_SCENARIOS``.
    """
    from repro.verify.scenarios import RACK_SCENARIOS, rack_ycsb
    if scenario not in RACK_SCENARIOS:
        raise ValueError(f"unknown rack scenario {scenario!r}; "
                         f"pick one of {sorted(RACK_SCENARIOS)}")
    return run_scenario(
        rack_ycsb(boards=boards, tors=tors, clients=clients,
                  ops=ops_per_client, script=scenario),
        seed=seed, partitioned=partitioned)
