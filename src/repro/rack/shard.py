"""Consistent-hash sharding of the region space across many CBoards.

The rack tier replaces the controller's least-utilized linear scan with a
classic consistent-hash ring: every board contributes ``vnodes`` virtual
points, a region's *home* is the first point clockwise from its key, and
board add/remove moves only the arcs adjacent to the touched points —
O(regions / boards) regions per membership change instead of a full
reshuffle.

Placement is not always the home, though: the home may be full, draining,
or believed dead, and load-balancing migrations deliberately move hot
regions elsewhere.  The ring therefore carries an **override directory**
— region id -> actual board — for every region living away from its home.
Lookups consult the directory first; membership's ``rebalance_to_home``
walks it to move strays back when capacity allows.

Hashing is ``blake2b`` over stable strings, so ring layout is a pure
function of (board names, vnodes, salt): deterministic across processes,
engines, and Python hash-randomization seeds.
"""

from __future__ import annotations

import bisect
from hashlib import blake2b
from typing import Iterator, Optional

#: Digest width: 8 bytes gives a 64-bit ring — collision-free in practice
#: for thousands of vnodes while staying cheap to compare.
_DIGEST_BYTES = 8


class ShardRing:
    """Consistent-hash ring with virtual nodes plus an override directory."""

    def __init__(self, vnodes: int = 32, salt: str = "clio-rack"):
        if vnodes < 1:
            raise ValueError(f"vnodes must be >= 1, got {vnodes}")
        self.vnodes = vnodes
        self.salt = salt
        self._points: list[int] = []        # sorted vnode hashes
        self._owners: list[str] = []        # board owning each point
        self._boards: set[str] = set()
        self._overrides: dict[int, str] = {}   # region_id -> actual board
        self.membership_changes = 0

    # -- hashing ------------------------------------------------------------------

    def _hash(self, text: str) -> int:
        digest = blake2b(f"{self.salt}/{text}".encode(),
                         digest_size=_DIGEST_BYTES).digest()
        return int.from_bytes(digest, "big")

    def key_point(self, key: int) -> int:
        """Ring position of a region key (region ids are the keys)."""
        return self._hash(f"region/{key}")

    # -- membership ---------------------------------------------------------------

    def add_board(self, name: str) -> None:
        """Insert a board's virtual points (idempotent-hostile: raises on
        a duplicate, so membership bugs surface instead of hiding)."""
        if name in self._boards:
            raise ValueError(f"board {name!r} already on the ring")
        self._boards.add(name)
        for vnode in range(self.vnodes):
            point = self._hash(f"board/{name}#{vnode}")
            index = bisect.bisect_left(self._points, point)
            self._points.insert(index, point)
            self._owners.insert(index, name)
        self.membership_changes += 1

    def remove_board(self, name: str) -> None:
        if name not in self._boards:
            raise KeyError(f"board {name!r} not on the ring")
        self._boards.discard(name)
        keep = [(p, o) for p, o in zip(self._points, self._owners)
                if o != name]
        self._points = [p for p, _ in keep]
        self._owners = [o for _, o in keep]
        self.membership_changes += 1

    @property
    def boards(self) -> list[str]:
        return sorted(self._boards)

    def __len__(self) -> int:
        return len(self._boards)

    def __contains__(self, name: str) -> bool:
        return name in self._boards

    # -- lookup -------------------------------------------------------------------

    def home(self, key: int) -> str:
        """The board owning ``key``'s arc (ignores overrides)."""
        if not self._points:
            raise LookupError("ring is empty")
        index = bisect.bisect_right(self._points, self.key_point(key))
        if index == len(self._points):
            index = 0
        return self._owners[index]

    def preference(self, key: int,
                   exclude: Optional[set] = None) -> Iterator[str]:
        """Distinct boards in ring order starting at ``key``'s home.

        The placement walk: the first yielded board is the home; each
        further one is the next distinct owner clockwise — the natural
        spill order when the home is full, draining, or dead.
        """
        if not self._points:
            return
        start = bisect.bisect_right(self._points, self.key_point(key))
        seen = set() if exclude is None else set(exclude)
        count = len(self._points)
        for step in range(count):
            owner = self._owners[(start + step) % count]
            if owner in seen:
                continue
            seen.add(owner)
            yield owner

    def locate(self, region_id: int) -> str:
        """Actual board of a region: override if present, else home."""
        override = self._overrides.get(region_id)
        if override is not None:
            return override
        return self.home(region_id)

    # -- override directory ---------------------------------------------------------

    def record_placement(self, region_id: int, board: str) -> None:
        """Note where a region actually landed; keeps the directory
        minimal (an entry exists only while placement differs from home)."""
        if board == self.home(region_id):
            self._overrides.pop(region_id, None)
        else:
            self._overrides[region_id] = board

    def clear_override(self, region_id: int) -> None:
        self._overrides.pop(region_id, None)

    def refresh_overrides(self, placements: dict[int, str]) -> None:
        """Rebuild the directory after a membership change.

        Ring mutations move arcs, so a region that *was* at its home may
        suddenly be a stray (and vice versa) without any placement having
        changed.  Given the authoritative region -> board map, this
        recomputes exactly the off-home set — what ``locate`` and the
        rebalancer rely on being truthful.
        """
        self._overrides = {
            region_id: board for region_id, board in placements.items()
            if not self._points or board != self.home(region_id)
        }

    def override_for(self, region_id: int) -> Optional[str]:
        return self._overrides.get(region_id)

    def overrides(self) -> dict[int, str]:
        """Snapshot of the directory (region id -> off-home board)."""
        return dict(self._overrides)

    @property
    def override_count(self) -> int:
        return len(self._overrides)

    # -- diagnostics ------------------------------------------------------------------

    def stats(self) -> dict:
        return {
            "boards": len(self._boards),
            "vnodes": self.vnodes,
            "points": len(self._points),
            "overrides": len(self._overrides),
            "membership_changes": self.membership_changes,
        }
