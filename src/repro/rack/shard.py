"""Consistent-hash sharding of the region space across many CBoards.

The rack tier replaces the controller's least-utilized linear scan with a
classic consistent-hash ring: every board contributes ``VNODES`` virtual
points, a region's *home* is the first point clockwise from its key, and
board add/remove moves only the arcs adjacent to the touched points —
O(regions / boards) regions per membership change instead of a full
reshuffle.

The ring holds no placement.  A region may live away from its home (the
home was full, draining or believed dead, or the arcs moved since), but
where it lives is its controller lease, and the controller derives the
off-home set from its leases
(:meth:`~repro.distributed.controller.GlobalController.strays`).

Hashing is ``blake2b`` over stable strings, so ring layout is a pure
function of the board names: deterministic across processes, engines,
and Python hash-randomization seeds.
"""

from __future__ import annotations

import bisect
from hashlib import blake2b
from typing import Iterator, Optional

#: Digest width: 8 bytes gives a 64-bit ring — collision-free in practice
#: for thousands of vnodes while staying cheap to compare.
_DIGEST_BYTES = 8
#: Virtual points per board.
VNODES = 32
#: Prefix of every hashed string; changing it reshuffles every layout.
_SALT = "clio-rack"


def _hash(text: str) -> int:
    digest = blake2b(f"{_SALT}/{text}".encode(),
                     digest_size=_DIGEST_BYTES).digest()
    return int.from_bytes(digest, "big")


class ShardRing:
    """Consistent-hash ring with virtual nodes."""

    def __init__(self):
        self._points: list[int] = []        # sorted vnode hashes
        self._owners: list[str] = []        # board owning each point
        self._boards: set[str] = set()
        self.membership_changes = 0

    def key_point(self, key: int) -> int:
        """Ring position of a region key (region ids are the keys)."""
        return _hash(f"region/{key}")

    # -- membership ---------------------------------------------------------------

    def add_board(self, name: str) -> None:
        """Insert a board's virtual points (idempotent-hostile: raises on
        a duplicate, so membership bugs surface instead of hiding)."""
        if name in self._boards:
            raise ValueError(f"board {name!r} already on the ring")
        self._boards.add(name)
        for vnode in range(VNODES):
            point = _hash(f"board/{name}#{vnode}")
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

    def __len__(self) -> int:
        return len(self._boards)

    def __contains__(self, name: str) -> bool:
        return name in self._boards

    # -- lookup -------------------------------------------------------------------

    def home(self, key: int) -> str:
        """The board owning ``key``'s arc."""
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
