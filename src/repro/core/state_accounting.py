"""On-chip state accounting (the paper's headline scalability claim).

    "each MN (CBoard) could support TBs of memory and thousands of
    application processes with only 1.5 MB on-chip memory"  (section 1)

This module computes the on-chip (SRAM/BRAM) bytes an MN must hold under
three designs, as functions of the client count, connection count, and
hosted memory — making the *scaling shape* checkable:

* **Clio** — bounded by design: TLB + async buffer + retry-dedup ring +
  MAT + sync-unit state.  None of it grows with clients or memory (the
  page table lives in off-chip DRAM).
* **RDMA RNIC** — caches that must grow with the working set to keep
  performance: QP state, MR metadata, and MTT (PTE) entries.
* **Go-Back-N MN** — the conventional reliable transport Clio argues
  against: every connection keeps sequence registers plus a retransmit
  buffer of one slot per window entry, linear in connections.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.params import MB, CBoardParams, RDMAParams

#: Conservative per-entry sizes (bytes).
TLB_ENTRY_BYTES = 16          # tag (pid,vpn) + ppn + perms
ASYNC_BUFFER_ENTRY_BYTES = 8  # one PPN
MAT_RULE_BYTES = 16
SYNC_UNIT_BYTES = 256         # atomic-unit registers + fence counters
QP_STATE_BYTES = 375          # paper-cited RDMA per-connection state
MR_ENTRY_BYTES = 32
PTE_ENTRY_BYTES = 16
#: Per-packet bookkeeping a hardware GBN keeps in the retransmit buffer.
PACKET_SLOT_BYTES = 64 + 1500      # descriptor + payload staging
#: Fixed per-connection registers (sequence numbers, timers, peer).
CONNECTION_FIXED_BYTES = 64


def connection_state_bytes(window: int) -> int:
    """On-chip bytes ONE endpoint holds per GBN connection."""
    return CONNECTION_FIXED_BYTES + window * PACKET_SLOT_BYTES


@dataclass(frozen=True)
class StateBreakdown:
    """On-chip bytes by component for one MN design point."""

    design: str
    components: dict

    @property
    def total_bytes(self) -> int:
        return sum(self.components.values())


def clio_onchip_state(params: CBoardParams | None = None,
                      clients: int = 1000,
                      hosted_bytes: int = 1 << 40) -> StateBreakdown:
    """Clio's on-chip state: independent of ``clients`` and ``hosted_bytes``.

    The arguments are accepted (and ignored) to make the independence
    explicit at call sites that sweep them.
    """
    params = params or CBoardParams()
    components = {
        "tlb": params.tlb_entries * TLB_ENTRY_BYTES,
        "async_buffer": params.async_buffer_depth * ASYNC_BUFFER_ENTRY_BYTES,
        "retry_dedup_ring": params.retry_buffer_bytes,
        "mat": 64 * MAT_RULE_BYTES,
        "sync_unit": SYNC_UNIT_BYTES,
    }
    return StateBreakdown(design="clio", components=components)


def rdma_onchip_state(clients: int, mrs_per_client: int = 1,
                      hosted_bytes: int = 1 << 40,
                      params: RDMAParams | None = None,
                      full_working_set: bool = True) -> StateBreakdown:
    """RNIC on-chip state needed to serve ``clients`` at full speed.

    With ``full_working_set`` the caches are sized to hold every QP, MR,
    and hot PTE (what the performance in Figures 4-5 requires); otherwise
    the fixed cache sizes are reported (and misses pay PCIe crossings).
    """
    params = params or RDMAParams()
    if full_working_set:
        qps = clients
        mrs = clients * mrs_per_client
        # Hot PTEs: one per 2 MB huge page of hosted memory.
        ptes = max(1, hosted_bytes // (2 * MB))
    else:
        qps = params.qp_cache_entries
        mrs = params.mr_cache_entries
        ptes = params.pte_cache_entries
    components = {
        "qp_state": qps * QP_STATE_BYTES,
        "mr_cache": mrs * MR_ENTRY_BYTES,
        "pte_cache": ptes * PTE_ENTRY_BYTES,
    }
    return StateBreakdown(design="rdma", components=components)


def gbn_onchip_state(connections: int, window: int = 32) -> StateBreakdown:
    """A GBN-style reliable-transport MN: linear in connections."""
    components = {
        "connection_state": connections * connection_state_bytes(window),
    }
    return StateBreakdown(design="gbn", components=components)
