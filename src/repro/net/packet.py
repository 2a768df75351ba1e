"""Link-layer packets and the Clio header.

Every packet is self-describing (sender/receiver addresses, request ID,
request type, fragment geometry) so the MN can treat each packet
independently and execute it on arrival, in any order (Principle 5).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, Optional


class PacketType(enum.Enum):
    """Clio header request/response types (the MAT dispatches on these)."""

    READ = "read"            # fast path
    WRITE = "write"          # fast path
    ATOMIC = "atomic"        # fast path (synchronization unit)
    FENCE = "fence"          # fast path barrier
    BATCH = "batch"          # fast path multi-op frame (scatter/gather)
    ALLOC = "alloc"          # slow path
    FREE = "free"            # slow path
    OFFLOAD = "offload"      # extend path
    CACHE_REQ = "cache_req"  # CN -> cache directory (fill/wbegin/wend/sync)
    CACHE_INVAL = "cache_inval"  # cache directory -> CN (recall/downgrade)
    RESPONSE = "response"
    NACK = "nack"            # corruption detected at MN


@dataclass(slots=True)
class ClioHeader:
    """Per-packet header: everything needed to process the packet alone.

    Built once per packet and never changed (a retry builds its own).  It
    is not ``frozen`` -- a frozen dataclass sets every field through
    ``object.__setattr__`` -- and the hot path builds it positionally,
    since a keyword call to a class packs a kwargs dict: ~2 µs a header
    frozen and by keyword, ~0.3 µs as it is now built (CPython 3.11).  So
    the field order is pinned (``tests/net/test_packet.py``).
    """

    src: str                      # sender node name
    dst: str                      # receiver node name
    request_id: int               # unique per request *and* per retry
    packet_type: PacketType
    pid: int = 0                  # global process ID (RAS selector)
    va: int = 0                   # target virtual address of this fragment
    size: int = 0                 # payload bytes covered by this fragment
    total_size: int = 0           # bytes of the whole request/response
    fragment: int = 0             # fragment index within the request
    fragments: int = 1            # total fragments of the request
    retry_of: Optional[int] = None  # request ID of the failed original


@dataclass(frozen=True, slots=True)
class BatchSubOp:
    """One operation inside a multi-op BATCH frame.

    The frame header carries the shared fields (PID, request ID); each
    sub-op contributes only its own descriptor — ``op`` (READ or WRITE),
    the target VA, the size, and the write payload.  On the wire a
    descriptor costs ``NetworkParams.subop_header_bytes`` instead of a
    full per-request header.
    """

    op: PacketType
    va: int
    size: int
    data: Optional[bytes] = None

    def __post_init__(self) -> None:
        if self.op not in (PacketType.READ, PacketType.WRITE):
            raise ValueError(f"batch sub-ops are READ/WRITE, got {self.op}")
        if self.size <= 0:
            raise ValueError(f"sub-op size must be positive, got {self.size}")
        if self.op is PacketType.WRITE:
            if self.data is None or len(self.data) != self.size:
                raise ValueError("write sub-op needs data matching size")
        elif self.data is not None:
            raise ValueError("read sub-op carries no data")


@dataclass(slots=True)
class Packet:
    """A link-layer packet: header + (simulated) payload."""

    header: ClioHeader
    payload: Any = None           # bytes for data fragments, or op descriptor
    wire_bytes: int = 0           # total on-wire size incl. headers
    corrupt: bool = False
    sent_at: int = 0              # set by the sender for RTT measurement

    def __repr__(self) -> str:
        h = self.header
        return (f"<Packet {h.packet_type.value} req={h.request_id} "
                f"{h.src}->{h.dst} frag={h.fragment}/{h.fragments} "
                f"{self.wire_bytes}B>")


def fragment_payload(total_size: int, mtu: int) -> list[tuple[int, int]]:
    """Split a request body into (offset, size) fragments of at most MTU.

    Zero-byte requests (pure control, e.g. fence) still occupy one
    header-only fragment.
    """
    if total_size < 0:
        raise ValueError(f"total_size must be non-negative, got {total_size}")
    if mtu <= 0:
        raise ValueError(f"mtu must be positive, got {mtu}")
    if total_size == 0:
        return [(0, 0)]
    fragments = []
    offset = 0
    while offset < total_size:
        size = min(mtu, total_size - offset)
        fragments.append((offset, size))
        offset += size
    return fragments
