"""ClusterVerifier: wires oracle + invariants + history capture into a
cluster, plus the result type every scenario run returns
(:mod:`repro.verify.runner` executes scenarios).

Attachment follows the telemetry pattern exactly: components carry a
``verifier`` attribute that is ``None`` by default and every hook sits
behind a single ``is not None`` check, so an unverified run schedules no
events, draws no RNG, and keeps bit-identical timestamps.  A *verified*
run is also passive — recording and checking happen synchronously inside
existing callbacks — so even then the simulated timeline is unchanged
(``tests/verify/test_chaos_oracle.py`` pins both properties).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.verify.invariants import (
    Violation,
    check_board,
    check_cluster,
    quick_check_board,
)
from repro.verify.linearize import HistoryOp, LinearizeResult
from repro.verify.oracle import ShadowOracle


class ClusterVerifier:
    """The three checking layers over one ClioCluster, which builds it
    (``layers=("verification",)``) and hands it to its components."""

    MAX_VIOLATIONS = 400

    def __init__(self, cluster):
        self.cluster = cluster
        self.oracle = ShadowOracle(cluster.env)
        self.violations: list[Violation] = []
        self.total_violations = 0
        self._seen: set = set()
        #: (mn, pid, va) -> [HistoryOp] for the linearizability checker.
        self.atomic_histories: dict = {}
        self._slowpath_board = {id(board.slow_path): board
                                for board in cluster.mns}
        self.sweeps = 0

    # -- violation recording ---------------------------------------------------

    def _record(self, violations: list[Violation]) -> None:
        for violation in violations:
            self.total_violations += 1
            key = (violation.invariant, violation.subject, violation.detail)
            if key in self._seen:
                continue
            self._seen.add(key)
            if len(self.violations) < self.MAX_VIOLATIONS:
                self.violations.append(violation)

    # -- CLib-side hooks (called from ClioThread, behind `is not None`) --------

    def read_begin(self, thread, va: int, size: int):
        process = thread.process
        return self.oracle.read_begin(process.mn, process.pid, va, size)

    def read_checked(self, token, data: bytes, retries: int) -> None:
        self.oracle.read_checked(token, data, retries)

    def read_failed(self, token) -> None:
        self.oracle.read_failed(token)

    def write_begin(self, thread, va: int, data: bytes):
        process = thread.process
        return self.oracle.write_begin(process.mn, process.pid, va, data)

    def write_acked(self, token, retries: int) -> None:
        self.oracle.write_acked(token, retries)

    def write_failed(self, token) -> None:
        self.oracle.write_failed(token)

    def atomic_begin(self, thread, va: int, op):
        process = thread.process
        token = self.oracle.atomic_begin(process.mn, process.pid, va, op)
        token.client = thread.label
        return token

    def atomic_acked(self, token, result, retries: int) -> None:
        self.oracle.atomic_acked(token, result, retries)
        self._history_for(token).append(HistoryOp(
            client=token.client, action=_atomic_action(token.op),
            result=(result.old_value, result.success),
            start_ns=token.started_ns, end_ns=self.oracle.env.now,
            completed=True))

    def atomic_failed(self, token, maybe_applied: bool) -> None:
        if not maybe_applied:
            # Rejected before execution (bad VA/permission): the op never
            # reached the word, so it does not belong in the history.
            return
        self.oracle.atomic_failed(token)
        self._history_for(token).append(HistoryOp(
            client=token.client, action=_atomic_action(token.op),
            start_ns=token.started_ns, completed=False))

    def _history_for(self, token) -> list:
        key = (token.mn, token.pid, token.va)
        history = self.atomic_histories.get(key)
        if history is None:
            history = self.atomic_histories[key] = []
        return history

    def alloc_done(self, thread, va: int, size: int) -> None:
        process = thread.process
        self.oracle.region_cleared(process.mn, process.pid, va, size)

    def free_done(self, thread, va: int, size: int) -> None:
        process = thread.process
        self.oracle.region_cleared(process.mn, process.pid, va, size)

    # -- board-side hooks -------------------------------------------------------

    def on_board_request(self, board) -> None:
        problems = quick_check_board(board)
        if problems:
            self._record(problems)

    def on_board_crash(self, board) -> None:
        self.oracle.on_board_crash(board.name)

    def on_board_restart(self, board) -> None:
        self.oracle.on_board_restart(board.name)

    def on_metadata_op(self, slow_path) -> None:
        """Full board sweep after every alloc/free — the operations that
        move pages between the free list, the async buffer, and PTEs."""
        board = self._slowpath_board.get(id(slow_path))
        if board is not None:
            self._record(check_board(board))

    def on_region_cleared(self, lease) -> None:
        """The controller allocated or freed ``lease``'s region: like
        :meth:`alloc_done`/:meth:`free_done`, the range reads as zero."""
        self.oracle.region_cleared(lease.mn, lease.pid, lease.va, lease.size)

    def on_region_migrated(self, lease, old_mn: str, old_va: int) -> None:
        self.oracle.region_remapped(lease.pid, old_mn, old_va,
                                    lease.mn, lease.va, lease.size)

    def on_region_evicted(self, lease, old_mn: str, old_va: int) -> None:
        """A region was re-homed off a dead board *without* a copy.

        Unlike a migration nothing moves: the old data is gone with the
        board and the new allocation reads as zero, so the shadow drops
        the stale cells on both sides instead of remapping them.
        """
        self.oracle.region_cleared(old_mn, lease.pid, old_va, lease.size)
        self.oracle.region_cleared(lease.mn, lease.pid, lease.va, lease.size)

    # -- sweeps and verdicts -----------------------------------------------------

    def sweep(self) -> list[Violation]:
        """Full invariant pass over every board and transport."""
        self.sweeps += 1
        found = check_cluster(self.cluster)
        self._record(found)
        return found

    @property
    def ok(self) -> bool:
        return self.oracle.ok and self.total_violations == 0

    def report(self) -> dict:
        """JSON-able digest of everything the verifier observed."""
        out = dict(self.oracle.report())
        out["invariant_violations"] = self.total_violations
        out["violations"] = [v.describe() for v in self.violations[:20]]
        out["sweeps"] = self.sweeps
        out["atomic_words_tracked"] = len(self.atomic_histories)
        return out


def _atomic_action(op) -> tuple:
    """AtomicOp -> the spec-level action tuple AtomicWordModel takes."""
    if op.kind == "tas":
        return ("tas",)
    if op.kind == "cas":
        return ("cas", op.expected, op.value)
    if op.kind == "faa":
        return ("faa", op.value)
    return ("store", op.value)


def spans_near(tracer, at_ns: int, window_ns: int = 3000,
               limit: int = 6) -> list[str]:
    """Telemetry spans overlapping ``at_ns`` — context for a violation."""
    if tracer is None:
        return []
    hits = []
    for span in tracer.spans:
        start = span.start_ns
        end = span.end_ns if span.end_ns is not None else at_ns
        if start - window_ns <= at_ns <= end + window_ns:
            hits.append(f"  span {span.name} [{span.track}] "
                        f"{start}..{span.end_ns} {span.args or ''}")
            if len(hits) >= limit:
                break
    return hits


@dataclass
class VerifyRunResult:
    """Outcome of one scenario run."""

    name: str
    lin: Optional[LinearizeResult]
    history_len: int
    violations: list = field(default_factory=list)
    report: dict = field(default_factory=dict)
    tracer: object = None
    notes: list = field(default_factory=list)
    #: Workload-specific structured results (fingerprints, latency
    #: percentiles, ...).
    extras: dict = field(default_factory=dict)
    #: Failed acceptance bars and workload-level audit failures (a hung
    #: worker, unbalanced counters): reported by :meth:`problems`, but
    #: not part of :attr:`ok`, which is the checkers' verdict alone.
    findings: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        if self.lin is not None and self.lin.ok is False:
            return False
        if self.violations:
            return False
        if self.report.get("read_mismatches") or self.report.get(
                "epoch_violations"):
            return False
        return True

    def problems(self) -> list[str]:
        out = []
        if self.lin is not None and self.lin.ok is False:
            out.append(f"{self.name}: history is NOT linearizable "
                       f"({self.lin.reason})")
        out.extend(f"{self.name}: {v.describe()}" for v in self.violations)
        out.extend(f"{self.name}: {m}" for m in
                   self.report.get("mismatch_details", []))
        out.extend(f"{self.name}: {e}" for e in
                   self.report.get("epoch_details", []))
        out.extend(f"{self.name}: {f}" for f in self.findings)
        return out
