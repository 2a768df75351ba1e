"""Structured span tracing over simulated time.

A :class:`Tracer` records *spans* (named intervals with a start and end
timestamp) and *instants* (point events) on named *tracks* — one track
per node, board, or subsystem.  Components carry a ``tracer`` attribute
that is ``None`` by default; every hook site is guarded by a single
``is not None`` check, so an untraced run does no work beyond that test
and stays bit-identical to a tracer-less tree.

Recording never schedules events, never yields, and never draws from an
RNG stream: even a *traced* run keeps exactly the same simulated
timestamps as an untraced one.  The only cost is wall-clock time and
memory, both bounded by ``max_records``.

**Storage.**  No record is kept as a Python object.  The tracer holds
one append-only log of int64 rows in ``array('q')`` chunks.  A row's
first cell is its *head*, ``site << 3 | kind``, and its records are
numbered (``seq``) in the order the rows were written::

    BEGIN     start_ns  slot      arg cells...
    END       slot      end_ns    arg cells...   (the BEGIN's slot)
    COMPLETE  start_ns  end_ns    arg cells...
    INSTANT   at_ns               arg cells...
    GROUP     cells...            (each part names the ones it reads)

A *site* is ``(name, category, track, args)``, registered once by the
component that records there (:meth:`Tracer.site`) and named by a small
int afterwards.  A site's args are either *untyped* names — a row then
carries one cell per name, an int below ``2**62`` in magnitude as itself
and every other value (``str``, ``None``, ``bool``, ``float``, a larger
int) as a reference into the tracer's value table, keyed by type so
``True`` never reads back as ``1`` — or *typed*: each arg is declared
``int`` (the cell is the value, no test) or given as a constant, which
lives in the site and takes no cell at all.  ``begin`` returns a handle
(the span's *slot*) and ``end`` appends an END row naming it, so no row
is ever rewritten.

**Completion-time rows.**  The hot request path does not bracket what it
does with a BEGIN and an END: each node writes what it did once, when its
part is over.  A :meth:`Tracer.group` strings typed sites together —
COMPLETE spans, INSTANTs, the END of a span begun earlier — over one set
of cells its parts share, and :attr:`Tracer.stamp` stores all of them as
one row (a board's ``mn:*`` + ``fastpath:*`` + ``mn_response``,
whose times and request id are cells all three read; a CN's
``attempt:*`` + the end of its ``request:*``).  A span recorded this way
is absent, not open, until it is over; the ``request:*`` around it keeps
a BEGIN row and reads open meanwhile.

**Staging.**  Every row is packed to int64 bytes when it is written and
staged as such.  A group's row is packed by what :meth:`Tracer.group`
returns, a ``struct`` packer, and ``stamp`` is the stage's
``list.append`` itself, so a hot hook runs no Python frame; the hot
``request:*`` BEGIN is :meth:`Tracer.open`, a call with a fixed
signature.  ``begin``, ``end``, ``complete`` and ``instant`` check their
value count against the site (a wrong one raises there, naming it) and
turn untyped values into cells first.  Every :data:`STAGE_ROWS` rows
(and before any read) the stage is counted, by the heads of its rows,
and joined into one new chunk, never resized afterwards; a stamped row
past the capacity is refused then, exactly as it would have been when
written.  ``clear()`` drops the chunks.  :class:`Span` /
:class:`Instant` objects exist only while somebody reads:
``tracer.spans`` and ``tracer.instants`` are read-only sequence views
that derive them from the rows on each access.

The span vocabulary the built-in instrumentation emits:

===========================  ==========  =====================================
name                         category    emitted by
===========================  ==========  =====================================
``request:<type>``           transport   CLib request issue -> complete/fail
``attempt:<type>``           transport   one (re)transmission -> ack/timeout
``mn:<type>``                cboard      MN handler: receive -> response
``mn_response`` (instant)    cboard      each response packet generated
``fastpath:<access>``        pipeline    one fast-path traversal (+breakdown)
``page_fault``               pipeline    bounded hardware fault resolution
``slowpath:<op>``            slowpath    ARM alloc/free handling
``arm_stall``                fault       slow-path stall window
``crashed``                  fault       board crash -> restart window
``fault:<kind>`` (instant)   fault       each injector application
``drop:<why>`` (instant)     net         link loss / down-drop / corruption
``board_down``/``board_up``  health      monitor belief transitions (instant)
===========================  ==========  =====================================
"""

from __future__ import annotations

import sys
from array import array
from collections.abc import Callable, Mapping, Sequence
from dataclasses import dataclass
from functools import partial
from operator import itemgetter
from struct import Struct, error as PackError
from typing import Any, Iterator, Optional


@dataclass(slots=True)
class Span:
    """A named interval on a track; ``end_ns`` is None while open."""

    name: str
    category: str
    track: str
    start_ns: int
    end_ns: Optional[int] = None
    args: Optional[dict] = None
    seq: int = 0

    @property
    def open(self) -> bool:
        return self.end_ns is None

    @property
    def duration_ns(self) -> Optional[int]:
        if self.end_ns is None:
            return None
        return self.end_ns - self.start_ns


@dataclass(slots=True)
class Instant:
    """A point event on a track."""

    name: str
    category: str
    track: str
    at_ns: int
    args: Optional[dict] = None
    seq: int = 0


#: Row kinds, the low bits of a row's head cell; COMPLETE, INSTANT and END
#: are also what a :meth:`Tracer.group` part can be.
_BEGIN, END, COMPLETE, INSTANT, _GROUP = range(5)
_KIND_BITS = 3
#: Untyped arg cells at or above ``_REF`` index the value table; below,
#: the cell is the int itself, which must be at least ``_REF_LOW``.
_REF = 1 << 62
_REF_LOW = -_REF
#: Rows staged between flushes; each flush copies them into one chunk.
STAGE_ROWS = 64
#: A record's address in the read index: chunk number, which part of a
#: group row it is, and the row's offset in the chunk.
_SHIFT, _PART = 32, 24
_OFFSET = (1 << _PART) - 1
#: A staged row's head: the first cell, as the bytes it was packed to.
_head = itemgetter(slice(0, 8))
#: What a flush counts of a row, records and instants, packed into one int
#: so that one ``sum`` counts a whole stage.
_FIELD = 32
_COUNT = (1 << _FIELD) - 1


class Sites(dict):
    """A family of sites (``request:<type>`` per packet type and MN):
    ``make(member)`` registers one the first time it is looked up."""

    def __init__(self, make):
        super().__init__()
        self._make = make

    def __missing__(self, member) -> int:
        site = self[member] = self._make(member)
        return site


class _Records(Sequence):
    """Read-only view of a tracer's spans (or instants), in ``seq`` order.

    ``len`` is a counter; indexing, slicing and iteration derive fresh
    :class:`Span` / :class:`Instant` objects from the rows each time.
    """

    def __init__(self, tracer: "Tracer", instants: bool):
        self._tracer = tracer
        self._instants = instants

    def __len__(self) -> int:
        tracer = self._tracer
        records = len(tracer)
        instants = tracer._instant_count
        return instants if self._instants else records - instants

    def _rows(self) -> array:
        tracer = self._tracer
        tracer._index()
        return tracer._instant_rows if self._instants else tracer._span_rows

    def __getitem__(self, index):
        derive = self._tracer._derive
        rows = self._rows()[index]
        if isinstance(index, slice):
            return [derive(row) for row in rows]
        return derive(rows)

    def __iter__(self) -> Iterator:
        return map(self._tracer._derive, self._rows())


class Tracer:
    """Bounded recorder of spans and instants against one environment."""

    def __init__(self, env, max_records: int = 1_000_000):
        if max_records <= 0:
            raise ValueError(
                f"max_records must be positive, got {max_records}")
        self.env = env
        self.max_records = max_records
        self.spans = _Records(self, instants=False)
        self.instants = _Records(self, instants=True)
        # Per site: (name, category, track, args), cells a record passes,
        # and that count again for a typed site (-1 for an untyped one,
        # whose values are cells only once interned).
        self._sites: list[tuple] = []
        self._arity: list[int] = []
        self._width: list[int] = []
        self._site_ids: dict[str, int] = {}
        # Per row head: (parts, width in cells, records, instants); a part
        # is (kind, site, the positions of its times, its args as (key,
        # constant or type, position)).
        self._layouts = Sites(self._plain_layout)
        # Per packed head: its row's records | instants << _FIELD.
        self._weights = Sites(self._weight)
        self._packers = Sites(lambda width: Struct(f"{width}q").pack)
        self._most = 1                  # records in the largest row
        # The stage: each row packed to int64 bytes, in the order written.
        self._stage: list[bytes] = []
        #: Store one row a :meth:`group` made: ``stamp(row(*cells))``.  It
        #: is the stage's ``list.append``, so a hot hook runs no Python
        #: frame; the row is counted when the stage is flushed.
        self.stamp = self._stage.append
        self.site(None, None, None)     # site 0: an END that adds no args
        self._seq = self._begun = 0
        self.clear()

    def __len__(self) -> int:
        self._flush()
        return self._seq - self._floor

    @property
    def dropped(self) -> int:
        """Records refused because the tracer held ``max_records``."""
        self._flush()
        return self._dropped

    @property
    def nbytes(self) -> int:
        """Bytes held by the row log and the read index built over it."""
        self._flush()
        return 8 * sum(map(len, (*self._chunks, self._addresses,
                                 self._span_rows, self._instant_rows,
                                 self._end_rows)))

    # -- sites ---------------------------------------------------------------------

    def site(self, name: Optional[str], category: Optional[str],
             track: Optional[str], keys=()) -> int:
        """The small int naming ``(name, category, track, args)``;
        registering the same site again returns the same int.

        ``keys`` is the names of the values every record passes, of any
        type — or, for a typed site, a mapping of each arg to ``int`` (the
        record passes an int, stored as itself) or to the constant it
        always is (stored here, not passed).
        """
        args = (tuple(keys.items()) if isinstance(keys, Mapping)
                else tuple((key, Any) for key in keys))
        key = (name, category, track, args)
        ident = repr(key)               # not the tuple: True == 1
        site = self._site_ids.get(ident)
        if site is None:
            site = self._site_ids[ident] = self._add_site(key)
            arity = self._arity[site] = sum(how is int or how is Any
                                            for _, how in args)
            if not any(how is Any for _, how in args):
                self._width[site] = arity
        return site

    def _add_site(self, key: tuple) -> int:
        self._sites.append(key)
        self._arity.append(0)
        self._width.append(-1)
        return len(self._sites) - 1

    def sites(self, prefix: str, category: str, track: str, keys=()) -> Sites:
        """A family of sites named ``prefix + member`` (an enum member's
        ``value``, or the string itself), each registered on first use."""
        return Sites(lambda member: self.site(
            prefix + getattr(member, "value", member), category, track, keys))

    def end_site(self, *keys: str) -> int:
        """The site of an :meth:`end` that adds the untyped args ``keys``."""
        return self.site(None, None, None, keys)

    def group(self, *parts: tuple) -> Callable[..., bytes]:
        """What packs a row that is several records at once, for
        :attr:`stamp`: ``row(*cells)`` checks the cells' count and that
        each is an int64 (``struct.error``), at C speed.

        ``parts`` are ``(kind, typed site, *cells)``: what each part reads
        of the row's cells — ``start_ns, end_ns, ints...`` for a COMPLETE
        span, ``at_ns, ints...`` for an INSTANT, and ``handle, end_ns,
        ints...`` for the END of a span from :meth:`begin` — as positions
        among them, so parts can share a cell.
        """
        layout, used, records, instants = [], set(), 0, 0
        for kind, site, *cells in parts:
            if self._width[site] < 0:
                raise ValueError(f"site {self._sites[site]} is not typed")
            size = 2 - (kind == INSTANT) + self._arity[site]
            if len(cells) != size:
                raise ValueError(f"site {self._sites[site]} reads {size} "
                                 f"cells, not {cells}")
            used.update(cells)
            layout.append(self._part(kind, site,
                                     [1 + cell for cell in cells]))
            if kind != END:
                records += 1
                instants += kind == INSTANT
        if used != set(range(len(used))):
            raise ValueError(f"a group's parts leave cells unread: {parts}")
        group = self._add_site((None, None, None, ())) << _KIND_BITS | _GROUP
        self._layouts[group] = tuple(layout), 1 + len(used), records, instants
        if records > self._most:
            self._most, self._mark = records, 0     # recount at the next call
        return partial(self._packers[1 + len(used)], group)

    def _part(self, kind: int, site: int, positions: list) -> tuple:
        """One part of a row layout: where its times and its args are."""
        lead = 1 if kind == INSTANT else 2
        cells = iter(positions[lead:])
        plan = tuple((key, how, next(cells) if how is int or how is Any
                      else None) for key, how in self._sites[site][3])
        return kind, site, tuple(positions[:lead]), plan

    def _plain_layout(self, head: int) -> tuple:
        """The layout of a row one call wrote (:class:`Sites` fills it)."""
        kind, site = head & (1 << _KIND_BITS) - 1, head >> _KIND_BITS
        width = 3 - (kind == INSTANT) + self._arity[site]
        return ((self._part(kind, site, list(range(1, width))),), width,
                int(kind != END), int(kind == INSTANT))

    # -- recording -----------------------------------------------------------------
    # Each call packs one row and appends it to the stage, after admitting
    # it unless the stage is short enough that it surely fits; _flush()
    # counts the stage's rows and joins them into a chunk.

    def _cells(self, site: int, values: tuple) -> list:
        """``values`` as cells, for a site whose width they do not have:
        an untyped site's, interned value by value; a wrong count raises,
        naming the site."""
        if len(values) != self._arity[site]:
            raise ValueError(f"site {self._sites[site]} does not take "
                             f"the values {values}")
        ids, cells = self._value_ids, []
        for value in values:
            type_ = type(value)
            if type_ is int and _REF_LOW <= value < _REF:
                cells.append(value)
                continue
            try:
                cells.append(ids[type_, value])
            except (KeyError, TypeError):           # new, or unhashable
                cells.append(self._intern(type_, value))
        return cells

    def _intern(self, type_: type, value: Any) -> int:
        cell = _REF + len(self._values)
        self._values.append(value)
        try:
            self._value_ids[type_, value] = cell
        except TypeError:
            pass            # unhashable: stored once per record, not shared
        return cell

    def _stage_row(self, head: tuple, site: int, values: tuple) -> None:
        """Pack ``head`` and the site's ``values`` as one row and stage
        it.  A wrong value count raises here, naming the site, and a typed
        value that is no int64 as ``array('q')`` does; neither stages."""
        if len(values) != self._width[site]:
            values = tuple(self._cells(site, values))
        row = head + values
        try:
            packed = self._packers[len(row)](*row)
        except PackError:
            packed = array("q", row).tobytes()     # raises what it is
        self._stage.append(packed)

    def begin(self, site: int, *values: Any,
              at_ns: Optional[int] = None) -> Optional[int]:
        """Open a span; returns the handle for :meth:`end`, or None (a
        no-op handle) when over capacity."""
        if len(self._stage) >= self._mark and not self._pass_mark():
            return None
        slot = self._begun + 1
        self._stage_row((site << _KIND_BITS,
                         self.env.now if at_ns is None else at_ns, slot),
                        site, values)
        self._begun = slot
        return slot

    def opening(self, site: int) -> Callable[..., bytes]:
        """What packs a BEGIN row of the typed ``site``, for :meth:`open`."""
        if self._width[site] < 0:
            raise ValueError(f"site {self._sites[site]} is not typed")
        return partial(self._packers[3 + self._arity[site]],
                       site << _KIND_BITS)

    def open(self, row: Callable[..., bytes], values: tuple) -> Optional[int]:
        """:meth:`begin` now, with a row from :meth:`opening` and the
        site's values as one tuple: the form a hot hook calls.  Its
        signature is fixed, where a call to ``begin``'s ``*values`` takes
        CPython's generic call path, at ~8 times the cost (3.11)."""
        if len(self._stage) >= self._mark and not self._pass_mark():
            return None
        slot = self._begun + 1
        self._stage.append(row(self.env.now, slot, *values))
        self._begun = slot
        return slot

    def end(self, handle: Optional[int], site: int = 0, *values: Any,
            at_ns: Optional[int] = None) -> None:
        """Close a span from :meth:`begin`, adding the ``site``'s args.

        Tolerates the None handle, and ignores a handle from before the
        last :meth:`clear`.  END rows are never refused: each belongs to
        a record ``max_records`` already admitted.
        """
        if handle is not None and handle > self._begun_floor:
            self._stage_row((site << _KIND_BITS | END, handle,
                             self.env.now if at_ns is None else at_ns),
                            site, values)

    def complete(self, site: int, start_ns: int, end_ns: int,
                 *values: Any) -> Optional[bool]:
        """Record an already-finished interval in one call; True, or None
        when over capacity."""
        if len(self._stage) >= self._mark and not self._pass_mark():
            return None
        self._stage_row((site << _KIND_BITS | COMPLETE, start_ns, end_ns),
                        site, values)
        return True

    def instant(self, site: int, *values: Any,
                at_ns: Optional[int] = None) -> Optional[bool]:
        """Record a point event; True, or None when over capacity."""
        if len(self._stage) >= self._mark and not self._pass_mark():
            return None
        self._stage_row((site << _KIND_BITS | INSTANT,
                         self.env.now if at_ns is None else at_ns),
                        site, values)
        return True

    def _pass_mark(self) -> bool:
        """At ``_mark`` staged rows: flush them, which counts them, and
        admit one more record if it fits."""
        self._flush()
        if self._seq < self._floor + self.max_records:
            return True
        self._dropped += 1
        return False

    def _flush(self) -> None:
        """Count the stage and join it into a new chunk.  A stamped row
        past the capacity is refused here, whole but for its ENDs, as it
        would have been when written."""
        stage = self._stage
        if stage:
            weight = sum(map(self._weights.__getitem__, map(_head, stage)))
            if self._seq + (weight & _COUNT) > self._floor + self.max_records:
                stage[:] = self._admit()
                weight = sum(map(self._weights.__getitem__,
                                 map(_head, stage)))
            if stage:
                self._chunks.append(array("q", b"".join(stage)))
            self._seq += weight & _COUNT
            self._instant_count += weight >> _FIELD
            stage.clear()
        # The mark: how many more rows surely fit, each as large as the
        # largest a group makes.
        self._mark = min(STAGE_ROWS, (self._floor + self.max_records
                                      - self._seq) // self._most)

    def _weight(self, head: bytes) -> int:
        _, _, records, instants = self._layouts[
            int.from_bytes(head, sys.byteorder, signed=True)]
        return records | instants << _FIELD

    def _admit(self) -> list:
        """The stage's rows that fit, in order: a row that would pass the
        capacity is refused whole, but an END in it that :meth:`end` would
        keep becomes a row of its own."""
        rows, room = [], self._floor + self.max_records - self._seq
        for packed in self._stage:
            row = array("q", packed)
            parts, _, records, _ = self._layouts[row[0]]
            if records <= room:
                rows.append(packed)
                room -= records
                continue
            self._dropped += records
            for kind, site, times, plan in parts:
                if kind == END and row[times[0]] > self._begun_floor:
                    end = [site << _KIND_BITS | END, row[times[0]],
                           row[times[1]]]
                    end += (row[cell] for _, _, cell in plan
                            if cell is not None)
                    rows.append(array("q", end).tobytes())
        return rows

    def clear(self) -> None:
        """Drop every record (and the chunks holding them).  A span still
        open keeps its handle, which :meth:`end` then ignores."""
        self._stage.clear()
        self._chunks: list[array] = []
        self._values: list = []
        self._value_ids: dict = {}
        self._floor = self._seq
        self._mark = 0                  # count before admitting
        self._begun_floor = self._begun     # handles <= this are stale
        self._instant_count = 0
        self._dropped = 0
        # The read index, extended over new chunks by _index(): the
        # address of each record in seq order, the seqs (less the floor,
        # less one) of the spans and of the instants, and the address of
        # the END of the span in slot ``_begun_floor + 1 + i`` (-1: none
        # yet).
        self._addresses = array("q")
        self._span_rows = array("q")
        self._instant_rows = array("q")
        self._end_rows = array("q")
        self._indexed = 0           # chunks scanned so far

    # -- reading -------------------------------------------------------------------

    def _index(self) -> None:
        self._flush()
        chunks, layouts = self._chunks, self._layouts
        addresses, spans, instants, ends = (
            self._addresses, self._span_rows, self._instant_rows,
            self._end_rows)
        for number in range(self._indexed, len(chunks)):
            chunk = chunks[number]
            offset, size = 0, len(chunk)
            while offset < size:
                parts, width, _, _ = layouts[chunk[offset]]
                address = number << _SHIFT | offset
                for part, (kind, _, times, _) in enumerate(parts):
                    if kind == END:
                        slot = (chunk[offset + times[0]]
                                - self._begun_floor - 1)
                        if slot >= 0:       # else: begun before clear()
                            ends[slot] = address | part << _PART
                        continue
                    if kind == _BEGIN:
                        ends.append(-1)
                    (instants if kind == INSTANT else spans).append(
                        len(addresses))
                    addresses.append(address | part << _PART)
                offset += width
        self._indexed = len(chunks)

    def _locate(self, address: int) -> tuple:
        """``(chunk, offset, part)`` of the record at ``address``."""
        chunk, offset = self._chunks[address >> _SHIFT], address & _OFFSET
        return (chunk, offset,
                self._layouts[chunk[offset]][0][address >> _PART & 0xFF])

    def _args(self, chunk: array, offset: int, plan: tuple) -> dict:
        """The args a part's ``plan`` reads from the row at ``offset``."""
        args, values = {}, self._values
        for key, how, cell in plan:
            if cell is None:
                args[key] = how
            else:
                value = chunk[offset + cell]
                args[key] = (value if how is int or value < _REF
                             else values[value - _REF])
        return args

    def _derive(self, rank: int):
        """The :class:`Span` or :class:`Instant` ``rank`` records after
        the first since :meth:`clear`."""
        chunk, offset, (kind, site, times, plan) = self._locate(
            self._addresses[rank])
        name, category, track, _ = self._sites[site]
        seq = self._floor + 1 + rank
        start_ns = chunk[offset + times[0]]
        args = self._args(chunk, offset, plan)
        if kind == INSTANT:
            return Instant(name, category, track, start_ns, args or None,
                           seq)
        if kind == COMPLETE:
            return Span(name, category, track, start_ns,
                        chunk[offset + times[1]], args or None, seq)
        end_ns = None
        end = self._end_rows[chunk[offset + times[1]]
                             - self._begun_floor - 1]
        if end >= 0:
            chunk, offset, (_, _, times, plan) = self._locate(end)
            end_ns = chunk[offset + times[1]]
            args.update(self._args(chunk, offset, plan))
        return Span(name, category, track, start_ns, end_ns, args or None,
                    seq)

    def find_spans(self, name_prefix: str = "",
                   category: Optional[str] = None,
                   track: Optional[str] = None) -> list[Span]:
        return [span for span in self.spans
                if span.name.startswith(name_prefix)
                and (category is None or span.category == category)
                and (track is None or span.track == track)]

    def find_instants(self, name_prefix: str = "",
                      category: Optional[str] = None,
                      track: Optional[str] = None) -> list[Instant]:
        return [event for event in self.instants
                if event.name.startswith(name_prefix)
                and (category is None or event.category == category)
                and (track is None or event.track == track)]

    def tracks(self) -> list[str]:
        return sorted({record.track for record in self.spans}
                      | {record.track for record in self.instants})

    def summary(self) -> dict:
        """Per-span-name aggregate: count and total/mean duration (ns)."""
        out: dict[str, dict] = {}
        for span in self.spans:
            entry = out.setdefault(span.name, {"count": 0, "total_ns": 0,
                                               "open": 0})
            entry["count"] += 1
            if span.end_ns is None:
                entry["open"] += 1
            else:
                entry["total_ns"] += span.end_ns - span.start_ns
        for entry in out.values():
            closed = entry["count"] - entry["open"]
            entry["mean_ns"] = entry["total_ns"] / closed if closed else None
        return out
