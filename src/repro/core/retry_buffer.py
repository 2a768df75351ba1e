"""MN-side retry deduplication buffer (paper section 4.5).

CLib gives every retry a fresh request ID and tags it with the ID of the
failed original.  The MN remembers the IDs of recently executed writes and
other once-only requests (plus the response each answered with) in a
small ring sized ``3 x TIMEOUT x bandwidth`` (30 KB in the paper's
setting): long enough to recognize two retries of any request, small
enough to be one of only two pieces of state the MN keeps.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Optional

#: Bytes one record occupies: request ID + metadata + room for an atomic result.
RECORD_BYTES = 32


class RetryBuffer:
    """Bounded ring remembering executed write/atomic request IDs."""

    def __init__(self, capacity_bytes: int, record_bytes: int = RECORD_BYTES):
        if capacity_bytes < record_bytes:
            raise ValueError(
                f"capacity {capacity_bytes} below one record ({record_bytes})")
        self.capacity_bytes = capacity_bytes
        self.record_bytes = record_bytes
        self.max_records = capacity_bytes // record_bytes
        self._records: OrderedDict[int, Any] = OrderedDict()
        self.dedup_hits = 0

    def __len__(self) -> int:
        return len(self._records)

    @property
    def bytes_used(self) -> int:
        return len(self._records) * self.record_bytes

    def remember(self, request_id: int, result: Any = None) -> None:
        """Record an executed write/atomic; evicts the oldest when full."""
        if request_id in self._records:
            self._records.move_to_end(request_id)
        self._records[request_id] = result
        while len(self._records) > self.max_records:
            self._records.popitem(last=False)

    def check(self, original_request_id: Optional[int]) -> tuple[bool, Any]:
        """Has the original of this retry already executed?

        Returns ``(already_executed, cached_result)``; a hit means the MN
        must not re-execute (a stale retried write could undo a newer one)
        and answers with the cached response, where there is one.
        """
        if original_request_id is None:
            return False, None
        if original_request_id in self._records:
            self.dedup_hits += 1
            return True, self._records[original_request_id]
        return False, None

    def clear(self) -> None:
        """Drop every record (board crash: the ring is on-chip SRAM)."""
        self._records.clear()
