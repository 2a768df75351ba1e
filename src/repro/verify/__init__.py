"""repro.verify: opt-in runtime correctness checking.

Three layers, built together on a cluster constructed with
``ClioCluster(layers=("verification",))``:

* :mod:`repro.verify.oracle` — a shadow-memory mirror of every
  acknowledged write, checking every completed read (retransmission-
  and epoch-aware);
* :mod:`repro.verify.invariants` — conservation/coherence predicates
  over allocator, page-table, TLB, retry-ring, sync-unit, and transport
  state;
* :mod:`repro.verify.linearize` — a Wing–Gong linearizability checker
  applied to the MN atomic unit and Clio-KV histories.

Canned workloads are declarative :class:`Scenario` values executed by
the one :func:`run_scenario` loop (:mod:`repro.verify.runner`); the
registry is :mod:`repro.verify.scenarios`.  ``docs/correctness.md``
describes the layers, the registry and the `repro verify` CLI.
"""

from repro.verify.harness import ClusterVerifier, VerifyRunResult, spans_near
from repro.verify.invariants import (
    Violation,
    check_board,
    check_cluster,
    check_transport,
    quick_check_board,
)
from repro.verify.linearize import (
    AtomicWordModel,
    HistoryOp,
    KVModel,
    LinearizeResult,
    check_history,
)
from repro.verify.oracle import (
    EpochViolation,
    OpToken,
    ReadMismatch,
    ShadowOracle,
)
from repro.verify.runner import (
    Bar,
    Scenario,
    Script,
    Workload,
    oplog_digest,
    p99,
    run_scenario,
)
from repro.verify.scenarios import (
    ALLOC_STRATEGIES,
    CHAOS_SCRIPTS,
    RACK_SCENARIOS,
    SCENARIOS,
    SUITES,
    scenario,
)

__all__ = [
    "ALLOC_STRATEGIES",
    "AtomicWordModel",
    "Bar",
    "CHAOS_SCRIPTS",
    "ClusterVerifier",
    "EpochViolation",
    "HistoryOp",
    "KVModel",
    "LinearizeResult",
    "OpToken",
    "RACK_SCENARIOS",
    "ReadMismatch",
    "SCENARIOS",
    "SUITES",
    "Scenario",
    "Script",
    "ShadowOracle",
    "VerifyRunResult",
    "Violation",
    "Workload",
    "check_board",
    "check_cluster",
    "check_history",
    "check_transport",
    "oplog_digest",
    "p99",
    "quick_check_board",
    "run_scenario",
    "scenario",
    "spans_near",
]
