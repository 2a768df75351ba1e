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
one append-only log of int64 rows in ``array('q')`` chunks::

    BEGIN     site  seq  start_ns  slot      arg cells...
    END       site  slot end_ns              arg cells...   (the BEGIN's slot)
    COMPLETE  site  seq  start_ns  end_ns    arg cells...
    INSTANT   site  seq  at_ns               arg cells...
    GROUP     site  seq  the cells of each part in turn...

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
part is over.  A :meth:`Tracer.group` site strings typed sites together
— COMPLETE spans, INSTANTs, the END of a span begun earlier — and one
:meth:`Tracer.record` call stores all of them as one row (a board's
``mn:*`` + ``fastpath:*`` + ``mn_response``; a CN's ``attempt:*`` + the
end of its ``request:*``).  A span recorded this way is absent, not open,
until it is over; the ``request:*`` around it keeps a BEGIN row and reads
open meanwhile.

A recording call only stages its row; every :data:`STAGE_RECORDS`
records (and before any read) the staged rows are copied together into
one new chunk, which is never resized afterwards, and ``clear()`` drops
the chunks.  :class:`Span` / :class:`Instant` objects exist only while
somebody reads: ``tracer.spans`` and ``tracer.instants`` are read-only
sequence views that derive them from the rows on each access.

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

from array import array
from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from typing import Any, Iterable, Iterator, Optional


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


#: Row kinds (cell 0 of every row); COMPLETE, INSTANT and END are also
#: what a :meth:`Tracer.group` part can be.
_BEGIN, END, COMPLETE, INSTANT, _GROUP = range(5)
#: Cells of a row before its arg cells, by kind.
_HEAD = (5, 4, 5, 4, 3)
#: Untyped arg cells at or above ``_REF`` index the value table; below,
#: the cell is the int itself, which must be at least ``_REF_LOW``.
_REF = 1 << 62
_REF_LOW = -_REF
#: Records staged between flushes; each flush copies them into one chunk.
STAGE_RECORDS = 128
#: A record's address in the read index: chunk number, which part of a
#: group row it is, and the row's offset in the chunk.
_SHIFT, _PART = 32, 24
_OFFSET = (1 << _PART) - 1


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
        instants = tracer._instant_count
        return instants if self._instants else len(tracer) - instants

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
        # Per site: (name, category, track, args) — for a group, its parts
        # in place of args —, cells a row carries, whether they are untyped.
        self._sites: list[tuple] = []
        self._arity: list[int] = []
        self._untyped: list[bool] = []
        self._site_ids: dict[str, int] = {}
        # Per group: (records, instants, its END parts' (cell, site)).
        self._groups: dict[int, tuple] = {}
        self.site(None, None, None)     # site 0: an END that adds no args
        self._seq = self._begun = 0
        self.clear()

    def __len__(self) -> int:
        return self._seq - self._floor

    @property
    def nbytes(self) -> int:
        """Bytes held by the row log and the read index built over it."""
        self._flush()
        return 8 * sum(map(len, (*self._chunks, self._span_rows,
                                 self._instant_rows, self._end_rows)))

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
            site = self._site_ids[ident] = len(self._sites)
            self._sites.append(key)
            self._arity.append(sum(how is int or how is Any
                                   for _, how in args))
            self._untyped.append(any(how is Any for _, how in args))
        return site

    def sites(self, prefix: str, category: str, track: str, keys=()) -> Sites:
        """A family of sites named ``prefix + member`` (an enum member's
        ``value``, or the string itself), each registered on first use."""
        return Sites(lambda member: self.site(
            prefix + getattr(member, "value", member), category, track, keys))

    def end_site(self, *keys: str) -> int:
        """The site of an :meth:`end` that adds the untyped args ``keys``."""
        return self.site(None, None, None, keys)

    def group(self, *parts: tuple[int, int]) -> int:
        """The site of a row that is several records at once.

        ``parts`` are ``(kind, typed site)`` pairs and :meth:`record`
        takes their cells in turn: ``start_ns, end_ns, args...`` for a
        COMPLETE span, ``at_ns, args...`` for an INSTANT, and ``handle,
        end_ns, args...`` for the END of a span from :meth:`begin`.
        """
        layout, ends, cell, records, instants = [], [], 0, 0, 0
        for kind, site in parts:
            if self._untyped[site]:
                raise ValueError(f"site {self._sites[site]} is not typed")
            # (kind, site, where in the row the cell before its time is,
            # which of the row's seqs is its own)
            layout.append((kind, site, cell + 2 + (kind == END), records))
            if kind == END:
                ends.append((cell, site))
            else:
                records += 1
                instants += kind == INSTANT
            cell += 2 - (kind == INSTANT) + self._arity[site]
        group = len(self._sites)
        self._sites.append((None, None, None, tuple(layout)))
        self._arity.append(cell)
        self._untyped.append(False)
        self._groups[group] = records, instants, ends
        return group

    # -- recording -----------------------------------------------------------------
    # Each call stages one row, head cells then values; _flush() copies
    # the staged rows into a chunk.

    def begin(self, site: int, *values: Any,
              at_ns: Optional[int] = None) -> Optional[int]:
        """Open a span; returns the handle for :meth:`end`, or None (a
        no-op handle) when over capacity."""
        seq = self._seq
        if seq >= self._mark and not self._pass_mark():
            return None
        self._seq = seq = seq + 1
        self._begun = slot = self._begun + 1
        self._stage.append((_BEGIN, site, seq,
                            self.env.now if at_ns is None else at_ns, slot,
                            *values))
        return slot

    def end(self, handle: Optional[int], site: int = 0, *values: Any,
            at_ns: Optional[int] = None) -> None:
        """Close a span from :meth:`begin`, adding the ``site``'s args.

        Tolerates the None handle, and ignores a handle from before the
        last :meth:`clear`.  END rows are never refused: each belongs to
        a record ``max_records`` already admitted.
        """
        if handle is not None and handle > self._begun_floor:
            self._stage.append((END, site, handle,
                                self.env.now if at_ns is None else at_ns,
                                *values))

    def complete(self, site: int, start_ns: int, end_ns: int,
                 *values: Any) -> Optional[int]:
        """Record an already-finished interval in one call."""
        seq = self._seq
        if seq >= self._mark and not self._pass_mark():
            return None
        self._seq = seq = seq + 1
        self._stage.append((COMPLETE, site, seq, start_ns, end_ns, *values))
        return seq

    def instant(self, site: int, *values: Any,
                at_ns: Optional[int] = None) -> Optional[int]:
        seq = self._seq
        if seq >= self._mark and not self._pass_mark():
            return None
        self._seq = seq = seq + 1
        self._instant_count += 1
        self._stage.append((INSTANT, site, seq,
                            self.env.now if at_ns is None else at_ns,
                            *values))
        return seq

    def record(self, group: int, *cells: int) -> None:
        """Record every part of a :meth:`group` as one row, or — over
        capacity — none of them, except that an END is never refused; a
        None handle is passed as 0."""
        records, instants, ends = self._groups[group]
        seq = self._seq
        if seq + records > self._mark and not self._pass_mark(records):
            for cell, site in ends:
                self.end(cells[cell], site,
                         *cells[cell + 2:cell + 2 + self._arity[site]],
                         at_ns=cells[cell + 1])
            return
        self._seq = seq + records
        self._instant_count += instants
        self._stage.append((_GROUP, group, seq + 1, *cells))

    def _pass_mark(self, records: int = 1) -> bool:
        """At ``_mark`` records: refuse the next ones if they pass the
        capacity, else flush the stage and move the mark on."""
        capacity = self._floor + self.max_records
        if self._seq + records > capacity:
            self.dropped += records
            return False
        self._flush()
        self._mark = min(self._seq + STAGE_RECORDS, capacity)
        return True

    def _flush(self) -> None:
        """The one recording path: copy the staged rows into a new chunk,
        a typed site's as they are, an untyped site's value by value.

        A row that cannot be stored raises here and stays staged, so the
        error repeats on every later flush or read instead of leaving a
        log with a hole in it.
        """
        stage = self._stage
        if not stage:
            return
        cells: list[int] = []
        extend, append = cells.extend, cells.append
        ids, arity, untyped = self._value_ids, self._arity, self._untyped
        for row in stage:
            site, head = row[1], _HEAD[row[0]]
            if len(row) != head + arity[site]:
                raise ValueError(f"site {self._sites[site]} does not take "
                                 f"the values {row[head:]}")
            if not untyped[site]:
                extend(row)
                continue
            extend(row[:head])
            for value in row[head:]:
                type_ = type(value)
                if type_ is int and _REF_LOW <= value < _REF:
                    append(value)
                else:
                    try:
                        append(ids[type_, value])
                    except (KeyError, TypeError):    # new, or unhashable
                        append(self._intern(type_, value))
        self._chunks.append(array("q", cells))
        stage.clear()

    def _intern(self, type_: type, value: Any) -> int:
        cell = _REF + len(self._values)
        self._values.append(value)
        try:
            self._value_ids[type_, value] = cell
        except TypeError:
            pass            # unhashable: stored once per record, not shared
        return cell

    def clear(self) -> None:
        """Drop every record (and the chunks holding them).  A span still
        open keeps its handle, which :meth:`end` then ignores."""
        self._stage: list[tuple] = []
        self._chunks: list[array] = []
        self._values: list = []
        self._value_ids: dict = {}
        self._floor = self._mark = self._seq
        self._begun_floor = self._begun     # handles <= this are stale
        self._instant_count = 0
        self.dropped = 0
        # The read index, extended over new chunks by _index(): the
        # address of each span / instant, and of the END of the span in
        # slot ``_begun_floor + 1 + i`` (-1: none yet).
        self._span_rows = array("q")
        self._instant_rows = array("q")
        self._end_rows = array("q")
        self._indexed = 0           # chunks scanned so far

    # -- reading -------------------------------------------------------------------

    def _index(self) -> None:
        self._flush()
        chunks, sites, arity = self._chunks, self._sites, self._arity
        spans, instants, ends = (self._span_rows, self._instant_rows,
                                 self._end_rows)
        for number in range(self._indexed, len(chunks)):
            chunk = chunks[number]
            offset, size = 0, len(chunk)
            while offset < size:
                kind, site = chunk[offset:offset + 2]
                address = number << _SHIFT | offset
                parts = (sites[site][3] if kind == _GROUP
                         else ((kind, site, 2, 0),))
                for part, (kind, _, cell, _) in enumerate(parts):
                    if kind == END:
                        slot = chunk[offset + cell] - self._begun_floor - 1
                        if slot >= 0:       # else: begun before clear()
                            ends[slot] = address | part << _PART
                        continue
                    if kind == _BEGIN:
                        ends.append(-1)
                    (instants if kind == INSTANT else spans).append(
                        address | part << _PART)
                offset += _HEAD[chunk[offset]] + arity[site]
        self._indexed = len(chunks)

    def _part(self, address: int) -> tuple:
        """``(chunk, kind, site, seq, cell)`` of the record at ``address``:
        ``chunk[cell]`` is an END's handle, the record's time comes after
        it, then a COMPLETE's end, then the arg cells."""
        chunk, offset = self._chunks[address >> _SHIFT], address & _OFFSET
        kind, site, seq = chunk[offset:offset + 3]
        cell = 2
        if kind == _GROUP:
            kind, site, cell, rank = self._sites[site][3][
                address >> _PART & 0xFF]
            seq += rank
        return chunk, kind, site, seq, offset + cell

    def _args(self, site: int, chunk: array, cell: int) -> dict:
        """The args of a ``site`` record whose arg cells start at ``cell``."""
        args, values = {}, self._values
        for key, how in self._sites[site][3]:
            if how is int or how is Any:
                value = chunk[cell]
                cell += 1
                args[key] = (value if how is int or value < _REF
                             else values[value - _REF])
            else:
                args[key] = how
        return args

    def _derive(self, address: int):
        """The :class:`Span` or :class:`Instant` at ``address``."""
        chunk, kind, site, seq, cell = self._part(address)
        name, category, track, _ = self._sites[site]
        at_ns = chunk[cell + 1]
        if kind == INSTANT:
            return Instant(name, category, track, at_ns,
                           self._args(site, chunk, cell + 2) or None, seq)
        if kind == COMPLETE:
            return Span(name, category, track, at_ns, chunk[cell + 2],
                        self._args(site, chunk, cell + 3) or None, seq)
        end_ns, args = None, self._args(site, chunk, cell + 3)
        end = self._end_rows[chunk[cell + 2] - self._begun_floor - 1]
        if end >= 0:
            chunk, _, site, _, cell = self._part(end)
            end_ns = chunk[cell + 1]
            args.update(self._args(site, chunk, cell + 2))
        return Span(name, category, track, at_ns, end_ns, args or None, seq)

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
