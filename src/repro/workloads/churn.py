"""Fragmentation/churn scenarios for the allocation-strategy layer.

Each scenario drives one MN through a deterministic alloc/touch/free
storm shaped to stress a different allocator pathology:

* ``small-churn`` — single-page objects, short lifetimes, several
  processes: the mix where per-process arenas amortize ARM slow-path
  crossings (the acceptance bar is a >=2x crossing cut vs the free
  list).
* ``small-large-mix`` — 80/20 single-page vs multi-page objects, whose
  frees leave gaps of mixed sizes in each process's VA range.
* ``ephemeral-longlived`` — half the objects die almost immediately,
  half pin the address space for most of the run.
* ``retry-storm`` — the hash page table is pre-loaded to high occupancy
  first, so every further allocation probes near-full buckets: the
  Fig. 13 retry storms the retry-aware ``jump`` VA policy exists for.

``run_churn`` executes a scenario on a :class:`~repro.cluster.ClioCluster`
and returns a :class:`ChurnReport` whose fingerprint covers every
allocation outcome and completion time — two runs are bit-identical iff
their fingerprints match (the determinism contract the flat-vs-PDES and
golden tests pin).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, replace
from typing import Optional

import repro.cluster
from repro.clib.client import RemoteAccessError
from repro.params import (KB, MB, AllocParams, Bounded, ClioParams, fraction,
                          positive)
from repro.sim.rng import RandomStream

#: Processes 6001.. host the churn mix; 7001.. host retry-storm ballast.
CHURN_PID_BASE = 6001
BALLAST_PID_BASE = 7001

#: The one board every scenario churns: 768 pages of 64 KB.
MN_CAPACITY = 48 * MB
PAGE_SIZE = 64 * KB


@dataclass(frozen=True)
class ChurnScenario(Bounded):
    """Shape of one alloc/free storm."""

    name: str
    description: str
    ops: int = positive(240)         # allocation events
    pids: int = positive(4)          # concurrent processes (arenas)
    small_pages: int = 1             # pages per small object
    large_pages: int = 8             # pages per large object
    large_frac: float = fraction(0.0)  # fraction of large objects
    ephemeral_life: tuple[int, int] = (1, 12)   # lifetime in alloc steps
    longlived_life: tuple[int, int] = (60, 120)
    longlived_frac: float = fraction(0.0)  # fraction with long lifetimes
    touch: bool = True               # fault pages in (PA churn, not just VA)
    # PT slot occupancy pinned before the run
    prefill_frac: float = fraction(0.0, "[0, 1)")


CHURN_SCENARIOS = {
    "small-churn": ChurnScenario(
        name="small-churn",
        description="single-page objects, short lifetimes, per-pid locality "
                    "(the arena acceptance mix)"),
    "small-large-mix": ChurnScenario(
        name="small-large-mix",
        description="80/20 small/large objects fragmenting the free space",
        large_frac=0.2, longlived_frac=0.25),
    "ephemeral-longlived": ChurnScenario(
        name="ephemeral-longlived",
        description="half the objects die instantly, half pin the pool",
        ephemeral_life=(1, 4), longlived_frac=0.5),
    "retry-storm": ChurnScenario(
        name="retry-storm",
        description="page table pre-loaded to high occupancy; every alloc "
                    "fights hash-overflow retries (Fig. 13)",
        ops=120, pids=2, prefill_frac=0.75, touch=False),
}


@dataclass
class ChurnReport:
    """Everything a churn run produced, plus a determinism fingerprint."""

    scenario: str
    pa_strategy: str
    va_policy: str
    seed: int
    ops_attempted: int = 0
    ops_failed: int = 0
    frees: int = 0
    alloc_latencies_ns: list = field(default_factory=list)
    retries_total: int = 0
    retry_max: int = 0
    slow_crossings: int = 0
    fragmentation: float = 0.0
    fragmentation_peak: float = 0.0
    free_pages: int = 0
    underruns: int = 0
    now_ns: int = 0
    events: int = 0
    violations: list = field(default_factory=list)
    verification: Optional[dict] = None
    oplog: list = field(default_factory=list)

    @property
    def ops_ok(self) -> int:
        return self.ops_attempted - self.ops_failed

    def percentile(self, p: float) -> int:
        """p-th percentile of simulated allocation latency (ns): the
        sorted entry at index ``floor(p / 100 * n)``, clamped to the last
        (0 for no samples).  This is :func:`repro.verify.runner.p99`'s
        rule at ``p``; at p = 50 and p = 99 the indices match it for
        every n up to 2 000 000."""
        if not self.alloc_latencies_ns:
            return 0
        ordered = sorted(self.alloc_latencies_ns)
        idx = min(len(ordered) - 1, int(p / 100.0 * len(ordered)))
        return ordered[idx]

    def fingerprint(self) -> str:
        """blake2b over every allocation outcome and the end state."""
        digest = hashlib.blake2b(digest_size=16)
        for record in self.oplog:
            digest.update(repr(record).encode())
        digest.update(repr((self.now_ns, self.ops_failed, self.frees,
                            self.retries_total, self.free_pages)).encode())
        return digest.hexdigest()

    def summary(self) -> dict:
        return {
            "scenario": self.scenario,
            "strategy": self.pa_strategy,
            "va_policy": self.va_policy,
            "ops": self.ops_attempted,
            "failed": self.ops_failed,
            "alloc_p50_us": self.percentile(50) / 1000.0,
            "alloc_p99_us": self.percentile(99) / 1000.0,
            "retries": self.retries_total,
            "retry_max": self.retry_max,
            "slow_crossings": self.slow_crossings,
            "fragmentation": round(self.fragmentation, 4),
            "fragmentation_peak": round(self.fragmentation_peak, 4),
            "underruns": self.underruns,
            "fingerprint": self.fingerprint(),
        }


def run_churn(scenario: str | ChurnScenario = "small-churn", *,
              pa_strategy: str = "freelist", va_policy: str = "first-fit",
              seed: int = 0, ops: Optional[int] = None,
              verify: bool = False) -> ChurnReport:
    """Run one churn scenario; returns the :class:`ChurnReport`.

    ``verify=True`` attaches the full checking stack (shadow oracle +
    per-metadata-op invariant sweeps); it adds no events, so a verified
    run keeps the unverified run's fingerprint.
    """
    spec = (scenario if isinstance(scenario, ChurnScenario)
            else CHURN_SCENARIOS[scenario])
    total_ops = ops if ops is not None else spec.ops
    params = replace(ClioParams.prototype(), alloc=AllocParams(
        pa_strategy=pa_strategy, va_policy=va_policy))
    # Looked up on the module per call, so a patched ``ClioCluster`` (the
    # partitioned engine, in the flat-vs-partitioned tests) is the one built.
    cluster = repro.cluster.ClioCluster(
        params=params, seed=seed, mn_capacity=MN_CAPACITY, page_size=PAGE_SIZE,
        layers=("verification",) if verify else ())
    verifier = cluster.verifier
    board = cluster.mn
    report = ChurnReport(scenario=spec.name, pa_strategy=pa_strategy,
                         va_policy=va_policy, seed=seed)
    rng = RandomStream(seed, f"churn/{spec.name}")
    threads = [
        cluster.cn(0).process("mn0", pid=CHURN_PID_BASE + i).thread()
        for i in range(spec.pids)
    ]
    env = cluster.env

    def prefill_ballast(thread):
        """Pin single-page allocations until the PT reaches the target."""
        table = board.page_table
        target = int(spec.prefill_frac * table.total_slots)
        while table.entry_count < target:
            try:
                yield from thread.ralloc(PAGE_SIZE)
            except RemoteAccessError:
                break

    def app():
        if spec.prefill_frac:
            ballast = cluster.cn(0).process(
                "mn0", pid=BALLAST_PID_BASE).thread()
            yield from prefill_ballast(ballast)
        live: list[tuple[int, int, int]] = []  # (expiry_step, thread_idx, va)
        for step in range(total_ops):
            # Expire everything whose lifetime ended.
            for expiry, tidx, va in [entry for entry in live
                                     if entry[0] <= step]:
                live.remove((expiry, tidx, va))
                yield from threads[tidx].rfree(va)
                report.frees += 1
            tidx = rng.uniform_int(0, spec.pids - 1)
            thread = threads[tidx]
            pages = (spec.large_pages if rng.chance(spec.large_frac)
                     else spec.small_pages)
            low, high = (spec.longlived_life
                         if rng.chance(spec.longlived_frac)
                         else spec.ephemeral_life)
            lifetime = rng.uniform_int(low, high)
            retries_before = board.va_allocator.total_retries
            start = env.now
            report.ops_attempted += 1
            try:
                va = yield from thread.ralloc(pages * PAGE_SIZE)
            except RemoteAccessError:
                report.ops_failed += 1
                report.oplog.append((step, tidx, "fail", env.now))
                continue
            latency = env.now - start
            retries = board.va_allocator.total_retries - retries_before
            report.alloc_latencies_ns.append(latency)
            report.retries_total += retries
            report.retry_max = max(report.retry_max, retries)
            if spec.touch:
                # Fault every page in (real PA churn, not just VA ranges).
                for page in range(pages):
                    yield from thread.rwrite(va + page * PAGE_SIZE,
                                             bytes([step & 0xFF]))
                if step % 7 == 0:
                    data = yield from thread.rread(va, 1)
                    assert data == bytes([step & 0xFF])
            live.append((step + 1 + lifetime, tidx, va))
            report.oplog.append(
                (step, tidx, va, pages, retries, latency, env.now))
            frag = board.pa_allocator.fragmentation
            if frag > report.fragmentation_peak:
                report.fragmentation_peak = frag
        # Long-lived survivors stay allocated: final fragmentation is
        # measured with the pool still pinned, then everything drains.
        report.fragmentation = board.pa_allocator.fragmentation
        for _, tidx, va in sorted(live):
            yield from threads[tidx].rfree(va)
            report.frees += 1
        return True

    cluster.run(until=env.process(app()))

    report.slow_crossings = board.pa_allocator.slow_crossings
    report.free_pages = board.pa_allocator.free_pages
    report.underruns = board.buffers.underruns
    report.now_ns = env.now
    report.events = getattr(env, "_seq", 0)
    if verifier is not None:
        report.violations = list(verifier.violations)
        report.verification = verifier.report()
    else:
        # Always run one final invariant sweep: cheap, strategy-aware.
        from repro.verify.invariants import check_board
        report.violations = check_board(board)
    return report
