"""Conservation and coherence invariants over live component state.

Each predicate inspects one component's state *read-only* and returns a
list of :class:`Violation` records (empty when healthy).  They are meant
to hold at event boundaries — every mutation the model makes between
yields leaves the structures consistent, so a checker invoked from a
hook or a sweep must find:

* **pa-conservation** — every physical page is in exactly one place:
  mapped behind a present PTE, on the free list, or pre-reserved in the
  async buffer.  ``present + free + reserved == total``.
* **pa-double-map / pa-free-while-mapped** — no PPN behind two present
  PTEs; no PPN simultaneously mapped and free.
* **tlb-coherence** — the TLB is a strict cache of the page table: every
  entry must match a *present* PTE with the same PPN and permission.
* **retry-ring-bound** — the dedup ring respects its byte budget (one of
  the MN's two bounded state guarantees).
* **write-progress** — multi-fragment write bookkeeping never goes
  negative or lingers at zero remaining, and holds no entry more than
  ``slow_timeout_ns`` older than its newest (orphans are dropped).
* **sync-mutual-exclusion** — at most one atomic ever held the unit
  (``AtomicUnit.max_active``), the paper's single-atomic-unit claim.
* **inflight / fence** — the handler-chain count never goes negative.
* **transport-window** — per-CN: in-flight == sends − (acks +
  failures); the congestion controllers' outstanding sum equals the
  pending table size.

``check_board``/``check_transport`` are the full sweeps;
``quick_check_board`` is the O(1) subset cheap enough to run on every
request whenever a verifier is attached.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Violation:
    """One invariant breach, with enough context to localize it."""

    at_ns: int
    invariant: str
    subject: str      # component instance ("mn0", "cn1", ...)
    detail: str

    def describe(self) -> str:
        return (f"[{self.invariant}] {self.subject} at t={self.at_ns}: "
                f"{self.detail}")


def check_board(board) -> list[Violation]:
    """Full invariant sweep over one CBoard."""
    violations: list[Violation] = []
    now = board.env.now
    name = board.name

    def bad(invariant: str, detail: str) -> None:
        violations.append(Violation(now, invariant, name, detail))

    # Physical-page conservation and mapping sanity.
    table = board.page_table
    allocator = board.pa_allocator
    present_ppns: list[int] = []
    for entry in table._index.values():
        if entry.present:
            present_ppns.append(entry.ppn)
    free = allocator.free_pages
    reserved = allocator._reserved
    total = allocator.physical_pages
    if len(present_ppns) + free + reserved != total:
        bad("pa-conservation",
            f"present={len(present_ppns)} + free={free} + "
            f"reserved={reserved} != physical_pages={total}")
    present_set = set(present_ppns)
    if len(present_set) != len(present_ppns):
        bad("pa-double-map",
            f"{len(present_ppns) - len(present_set)} PPN(s) mapped by "
            "more than one present PTE")
    overlap = present_set.intersection(allocator.free_ppns())
    if overlap:
        bad("pa-free-while-mapped",
            f"PPNs both mapped and on the free list: "
            f"{sorted(overlap)[:8]}")
    # Strategy-internal audit: freelist duplicate detection, arena stash
    # accounting.
    for tag, detail in allocator.check():
        bad(f"alloc-{tag}", detail)

    # TLB ⊆ page table (same PPN, same permission, present).
    for (pid, vpn), (ppn, permission) in board.tlb._entries.items():
        entry = table.lookup(pid, vpn)
        if entry is None or not entry.present:
            bad("tlb-coherence",
                f"TLB maps pid={pid} vpn={vpn} -> ppn={ppn} but the page "
                "table has no present PTE for it")
        elif entry.ppn != ppn or entry.permission != permission:
            bad("tlb-coherence",
                f"TLB pid={pid} vpn={vpn} says (ppn={ppn}, "
                f"{permission}) but PTE says (ppn={entry.ppn}, "
                f"{entry.permission})")

    # Retry-dedup ring stays inside its byte budget.
    ring = board.retry_buffer
    if len(ring) > ring.max_records or ring.bytes_used > ring.capacity_bytes:
        bad("retry-ring-bound",
            f"{len(ring)} records / {ring.bytes_used} B exceed "
            f"{ring.max_records} records / {ring.capacity_bytes} B")

    # Multi-fragment write bookkeeping: no entry is slow_timeout_ns older
    # than the newest (orphans of lost fragments are dropped).
    pending = list(board._write_progress.items())
    for request_id, progress in pending:
        age = pending[-1][1].born - progress.born
        if progress.remaining < 1 or age > board.params.clib.slow_timeout_ns:
            bad("write-progress", f"request {request_id} has remaining="
                f"{progress.remaining}, {age} ns older than the newest")

    # The single atomic unit never admits two atomics at once.
    unit = board.atomic_unit
    if unit.max_active > 1:
        bad("sync-mutual-exclusion",
            f"atomic unit admitted {unit.max_active} concurrent ops")

    if board._inflight < 0:
        bad("inflight", f"handler-chain count is {board._inflight}")

    return violations


def quick_check_board(board) -> list[Violation]:
    """O(1) subset of :func:`check_board`, safe to run per-request."""
    violations: list[Violation] = []
    now = board.env.now
    if board.atomic_unit.max_active > 1:
        violations.append(Violation(
            now, "sync-mutual-exclusion", board.name,
            f"atomic unit admitted {board.atomic_unit.max_active} "
            "concurrent ops"))
    if board._inflight < 0:
        violations.append(Violation(
            now, "inflight", board.name,
            f"handler-chain count is {board._inflight}"))
    ring = board.retry_buffer
    if len(ring) > ring.max_records:
        violations.append(Violation(
            now, "retry-ring-bound", board.name,
            f"{len(ring)} records exceed {ring.max_records}"))
    return violations


def check_transport(node) -> list[Violation]:
    """Window accounting on one compute node's CLib transport."""
    violations: list[Violation] = []
    transport = node.transport
    now = node.env.now
    name = node.name

    def bad(invariant: str, detail: str) -> None:
        violations.append(Violation(now, invariant, name, detail))

    outstanding = 0
    for mn, controller in transport._congestion.items():
        if controller.outstanding < 0:
            bad("transport-window",
                f"negative outstanding ({controller.outstanding}) "
                f"towards {mn}")
        outstanding += controller.outstanding
    if outstanding != len(transport._pending):
        bad("transport-window",
            f"congestion outstanding sum {outstanding} != "
            f"{len(transport._pending)} pending requests")

    settled = transport.requests_completed + transport.requests_failed
    if transport.requests_issued < settled:
        bad("transport-conservation",
            f"issued={transport.requests_issued} < completed+failed="
            f"{settled}")
    if transport.requests_issued - settled < len(transport._pending):
        bad("transport-conservation",
            f"issued−settled={transport.requests_issued - settled} "
            f"cannot cover {len(transport._pending)} pending requests")
    return violations


def check_cluster(cluster) -> list[Violation]:
    """Every board plus every CN transport."""
    violations: list[Violation] = []
    for board in cluster.mns:
        violations.extend(check_board(board))
    for node in cluster.cns:
        violations.extend(check_transport(node))
    return violations
