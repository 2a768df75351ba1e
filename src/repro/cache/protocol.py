"""The cache line protocol, written down once.

Two tables, and the three small things both halves of the layer share
(the FIFO hand-off lock, the line-range function, answering a retried
request once).  :class:`~repro.cache.pagecache.PageCache` interprets
:data:`LINE_TABLE`, :class:`~repro.cache.directory.CacheDirectory`
interprets :data:`DIR_TABLE`; neither compares a state or an action
name itself.  A combination with no row cannot occur (e.g. a MODIFIED
line under write-through) and raises ``KeyError`` if it ever does.
``docs/caching.md`` renders both tables (``tools/cache_protocol_doc.py``).
"""

from __future__ import annotations

from collections import deque
from typing import NamedTuple, Optional

from repro.net.packet import ClioHeader, Packet, PacketType

# -- CN side: one line in one state meets one event ------------------------------

#: No line object for the key.
ABSENT = "absent"
#: Placeholder while a fill is in flight: never served, never evicted.
FILLING = "filling"
#: Clean read-only copy; any number of CNs may hold one.
SHARED = "shared"
#: Exclusive dirty copy (write-back only).
MODIFIED = "modified"


class LineRow(NamedTuple):
    """What one event does to a line in one state."""

    poison: bool = False          # the in-flight fill must not install
    wait: bool = False            # wait out the fill, then look again
    flush: bool = False           # write the dirty bytes back first
    next: Optional[str] = None    # state afterwards (None: line untouched)
    drop: bool = False            # queue a drop notice for the directory
    count: Optional[str] = None   # PageCache counter the step increments


def _table(columns: tuple, grid: dict) -> dict:
    """``{(column, row name): cell}`` for every cell that can occur."""
    return {(column, name): cell for name, cells in grid.items()
            for column, cell in zip(columns, cells) if cell is not None}


_NOTHING = LineRow()
_POISON = LineRow(poison=True)
_WAIT = LineRow(wait=True)
_ACKED = LineRow(count="write_throughs")
_OWNER_HIT = LineRow(next=MODIFIED, count="write_hits")
_INSTALL = LineRow(next=MODIFIED, count="write_fills")
_EVICT = LineRow(next=ABSENT, drop=True, count="evictions")
_DISCARD = LineRow(next=ABSENT, drop=True)
_RECALL = LineRow(next=ABSENT)
_DOWNGRADE = LineRow(next=SHARED)

#: (state, event) -> :class:`LineRow`: one line per event, one cell per
#: state (None: cannot occur — there is no MODIFIED under write-through).
#: ``read`` / ``write`` are a local op arriving: only an owner commits a
#: write on arrival, the rest go to the directory first, and never while
#: a local fill is in flight, whose MN read could race the MN write
#: (through) or the ownership (back).  ``fill`` is the fill reply for an
#: unpoisoned placeholder, ``fill_void`` one that must not install
#: (poisoned, ``owner_local``, or failed); ``through_acked`` is the MN
#: acking a write-through; ``back_granted`` the directory granting
#: write-back ownership.  The rest retire a line: ``evict`` (capacity;
#: or departure, which walks every key and so meets placeholders too),
#: ``discard`` (a write-through whose ack was lost), and the directory's
#: CACHE_INVALs ``recall`` / ``downgrade``, which it accounts for itself
#: (no drop notice).
LINE_TABLE: dict[tuple[str, str], LineRow] = _table(
    (ABSENT, FILLING, SHARED, MODIFIED), {
        "read": (LineRow(next=FILLING, count="misses"), _WAIT,
                 LineRow(next=SHARED, count="hits"),
                 LineRow(next=MODIFIED, count="hits")),
        "fill": (None, LineRow(next=SHARED, count="fills"), None, None),
        "fill_void": (None, _DISCARD, None, None),
        "write": (_NOTHING, _WAIT, _NOTHING, _OWNER_HIT),
        "through_acked": (_ACKED, _ACKED._replace(poison=True),
                          _ACKED._replace(next=SHARED), None),
        "back_granted": (_INSTALL, _INSTALL._replace(poison=True),
                         _OWNER_HIT, _OWNER_HIT),
        "evict": (_NOTHING, _POISON, _EVICT, _EVICT._replace(flush=True)),
        "discard": (_NOTHING, _POISON, _DISCARD, None),
        "recall": (_NOTHING, _POISON, _RECALL, _RECALL._replace(flush=True)),
        "downgrade": (_NOTHING, _POISON, _DOWNGRADE,
                      _DOWNGRADE._replace(flush=True)),
    })

# -- directory side: one op meets one entry -----------------------------------------


class DirRow(NamedTuple):
    """What one directory op does about one line's entry."""

    send: Optional[str] = None    # CACHE_INVAL to deliver first, if any
    to: Optional[str] = None      # who gets it: a key of :data:`TARGETS`
    edits: tuple = ()             # then the entry changes: :data:`EDITS` keys
    count: Optional[str] = None   # directory counter, once per message sent
    local: bool = False           # answer ``owner_local``: the requester's
    #                               own dirty copy is the current one


#: Who a row's message goes to: (owner, sharers, requester) -> CNs.
TARGETS = {
    "owner": lambda owner, sharers, src: {owner},
    "others": lambda owner, sharers, src: (sharers | {owner}) - {src, None},
    "holders": lambda owner, sharers, src: (sharers | {owner}) - {None},
}

#: What an entry becomes: (owner, sharers, requester) -> (owner, sharers).
EDITS = {
    "demote": lambda owner, sharers, src: (None, sharers | {owner}),
    "admit": lambda owner, sharers, src: (owner, sharers | {src}),
    "grant": lambda owner, sharers, src: (src, frozenset()),
    # Everyone else was recalled; the requester keeps a copy it held.
    "retain": lambda owner, sharers, src: (
        None, (sharers | {owner}) & {src}),
    "clear": lambda owner, sharers, src: (None, frozenset()),
    "forget": lambda owner, sharers, src: (
        None if owner == src else owner, sharers - {src}),
}

_ADMIT = DirRow(edits=("admit",))
_SYNC = DirRow("downgrade", "owner", ("demote",))
_RETAIN = DirRow("recall", "others", ("retain",), "recalls")
_GRANT = DirRow("recall", "others", ("grant",), "recalls")
_GUARD = DirRow("recall", "holders", ("clear",), "recalls")
_FREEZE = DirRow("recall", "holders", ("clear",))
_FORGET = DirRow(edits=("forget",))

#: Who holds a line, as the directory sees it on behalf of a requester:
#: ``self`` (the requester owns it dirty), ``owner`` (another CN does),
#: ``sharers`` (clean copies only), ``neither``.
HOLDERS = ("self", "owner", "sharers", "neither")

#: (holder, op) -> :class:`DirRow`: one line per op, one cell per
#: :data:`HOLDERS` member (None: cannot occur).  Ops: ``wbegin``
#: is a write-through transaction, ``wbegin+owner`` a write-back one,
#: ``wbegin+self`` a guard (atomics, large writes, frees) that recalls
#: the requester's own copy too; ``sync`` (write-back bypass read)
#: downgrades the requester's own node too; ``freeze`` is the
#: controller's and has no requester; ``drop`` is a drop notice or a
#: departure.  Owners exist only under write-back, where plain
#: ``wbegin`` is never sent.
DIR_TABLE: dict[tuple[str, str], DirRow] = _table(HOLDERS, {
    "fill": (DirRow(local=True),
             DirRow("downgrade", "owner", ("demote", "admit"), "downgrades"),
             _ADMIT, _ADMIT),
    "wbegin": (None, None, _RETAIN, _RETAIN),
    "wbegin+owner": (_GRANT, _GRANT, _GRANT, _GRANT),
    "wbegin+self": (_GUARD, _GUARD, _GUARD, _GUARD),
    "sync": (_SYNC, _SYNC, DirRow(), DirRow()),
    "freeze": (None, _FREEZE, _FREEZE, _FREEZE),
    "drop": (_FORGET, _FORGET, _FORGET, _FORGET),
})

# -- shared by both halves -------------------------------------------------------------


class FifoLock:
    """A lock that is handed to its first waiter on release, costing no
    event while uncontended."""

    __slots__ = ("env", "held", "waiters")

    def __init__(self, env):
        self.env = env
        self.held = False
        self.waiters: deque = deque()

    def acquire(self):
        """Process-generator: returns holding the lock."""
        if not self.held:
            self.held = True
            return
        waiter = self.env.event()
        self.waiters.append(waiter)
        yield waiter                    # woken holding the lock (hand-off)

    def release(self) -> None:
        if self.waiters:
            self.waiters.popleft().succeed()
        else:
            self.held = False


def bump(owner, counter: Optional[str]) -> None:
    """Increment the plain-attribute counter a table row names, if any."""
    if counter is not None:
        setattr(owner, counter, getattr(owner, counter) + 1)


def line_keys(mn: str, pid: int, va: int, size: int, line_bytes: int) -> tuple:
    """Every line key ``(mn, pid, line_va)`` overlapping ``[va, va+size)``."""
    first = va - (va % line_bytes)
    return tuple((mn, pid, line_va)
                 for line_va in range(first, va + size, line_bytes))


def post(topology, env, packet_type: PacketType, src: str, dst: str,
         request_id: int, payload, wire_bytes: int) -> None:
    """Put one packet of the cache protocol on the fabric."""
    header = ClioHeader(src=src, dst=dst, request_id=request_id,
                        packet_type=packet_type)
    topology.send(Packet(header=header, payload=payload,
                         wire_bytes=wire_bytes, sent_at=env.now))


class AnswerOnce:
    """At-most-once execution under retries, for a node that answers
    requests with bare RESPONSE packets: each logical request runs once
    however often it is retried, the answer goes to its latest attempt,
    and a retry of one that already finished is re-answered, never
    re-run.  Forgets all but the last ``memory`` finished requests."""

    def __init__(self, memory: int, name: str, topology, env, params):
        self._memory = memory
        self._name = name
        self._topology = topology
        self._env = env
        self._header_bytes = params.network.header_bytes
        self._states: dict = {}     # id -> [dst, attempt id, body | None]
        self._finished: deque = deque()

    def first(self, logical_id, dst: str, attempt_id: int) -> bool:
        """Note one arrival; True when the caller must now run it (and
        call :meth:`finish`)."""
        state = self._states.get(logical_id)
        if state is None:
            self._states[logical_id] = [dst, attempt_id, None]
            return True
        state[1] = attempt_id           # the sender only listens on its latest
        if state[2] is not None:
            self._send(*state)
        return False

    def finish(self, logical_id, body) -> None:
        state = self._states[logical_id]
        state[2] = body
        self._finished.append(logical_id)
        while len(self._finished) > self._memory:
            del self._states[self._finished.popleft()]
        self._send(*state)

    def _send(self, dst: str, request_id: int, body) -> None:
        post(self._topology, self._env, PacketType.RESPONSE, self._name,
             dst, request_id, body, self._header_bytes)
