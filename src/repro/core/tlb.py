"""On-chip TLB: fixed-size content-addressable memory with LRU replacement.

A hit resolves translation with zero DRAM accesses; a miss costs exactly
one DRAM access (the page-table bucket fetch) — the property that gives
Figure 5 its two flat latency levels.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Optional

from repro.core.addr import Permission


class TLB:
    """LRU translation cache keyed by (PID, VPN)."""

    def __init__(self, entries: int):
        if entries <= 0:
            raise ValueError(f"entries must be positive, got {entries}")
        self.capacity = entries
        self._entries: OrderedDict[tuple[int, int], tuple[int, Permission]] = OrderedDict()
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._entries)

    def lookup(self, pid: int, vpn: int) -> Optional[tuple[int, Permission]]:
        """Return (PPN, permission) on hit, None on miss; updates LRU order."""
        key = (pid, vpn)
        hit = self._entries.get(key)
        if hit is None:
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return hit

    def insert(self, pid: int, vpn: int, ppn: int, permission: Permission) -> None:
        """Install a translation, evicting the LRU entry if full."""
        key = (pid, vpn)
        if key in self._entries:
            self._entries.move_to_end(key)
        elif len(self._entries) >= self.capacity:
            self._entries.popitem(last=False)
        self._entries[key] = (ppn, permission)

    def invalidate(self, pid: int, vpn: int) -> bool:
        """Drop one translation (PTE update consistency); True if it existed."""
        return self._entries.pop((pid, vpn), None) is not None

    def flush(self) -> None:
        self._entries.clear()

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0
