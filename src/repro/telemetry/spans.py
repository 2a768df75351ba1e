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

    BEGIN     site  seq  start_ns          arg cells...
    END       site  ref  end_ns            arg cells...   (ref = the BEGIN's seq)
    COMPLETE  site  seq  start_ns  end_ns  arg cells...
    INSTANT   site  seq  at_ns             arg cells...

A *site* is ``(name, category, track, arg keys)``, registered once by the
component that records there (:meth:`Tracer.site`) and named by a small
int afterwards; a row carries one cell per arg key.  An int below
``2**62`` in magnitude is its own cell; every other value (``str``,
``None``, ``bool``, ``float``, a larger int) is interned in the tracer's
value table and the cell refers to it, keyed by type so ``True`` never
reads back as ``1``.  ``begin`` returns the record's ``seq`` as the
handle and ``end`` appends an END row naming it, so no row is ever
rewritten.  A recording call only stages its arguments; every
:data:`STAGE_RECORDS` records (and before any read) the staged rows are
encoded together into one new chunk, which is never resized afterwards,
and ``clear()`` drops the chunks.  :class:`Span` / :class:`Instant`
objects exist only while somebody reads: ``tracer.spans`` and
``tracer.instants`` are read-only sequence views that derive them from
the rows on each access.

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
from collections.abc import Sequence
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


#: Row kinds (cell 0 of every row).
_BEGIN, _END, _COMPLETE, _INSTANT = range(4)
#: Arg cells at or above ``_REF`` index the value table; below, the cell
#: is the int itself, which must be at least ``_REF_LOW``.
_REF = 1 << 62
_REF_LOW = -_REF
#: Records staged between flushes; each flush encodes one chunk.
STAGE_RECORDS = 128
#: A row's address is ``chunk number << _SHIFT | offset in the chunk``.
_SHIFT = 32
_OFFSET = (1 << _SHIFT) - 1


class _Sites(dict):
    """Sites of one name family (``request:<type>``): member -> site,
    registered the first time the member is recorded."""

    def __init__(self, register):
        super().__init__()
        self._register = register

    def __missing__(self, member) -> int:
        site = self[member] = self._register(getattr(member, "value", member))
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
        # Site 0 is the END of a span that closes without args.
        self._sites: list[tuple] = [(None, None, None, ())]
        self._site_ids: dict[tuple, int] = {self._sites[0]: 0}
        self._arity: list[int] = [0]
        self._seq = 0
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
             track: Optional[str], keys: Iterable[str] = ()) -> int:
        """The small int naming ``(name, category, track, arg keys)``;
        registering the same site again returns the same int."""
        key = (name, category, track, tuple(keys))
        site = self._site_ids.get(key)
        if site is None:
            site = self._site_ids[key] = len(self._sites)
            self._sites.append(key)
            self._arity.append(len(key[3]))
        return site

    def sites(self, prefix: str, category: str, track: str,
              keys: Iterable[str] = ()) -> dict:
        """A family of sites named ``prefix + member`` (an enum member's
        ``value``, or the string itself), each registered on first use."""
        keys = tuple(keys)
        return _Sites(lambda label: self.site(prefix + label, category,
                                              track, keys))

    def end_site(self, *keys: str) -> int:
        """The site of an :meth:`end` that adds the args ``keys``."""
        return self.site(None, None, None, keys)

    # -- recording -----------------------------------------------------------------
    # Each call stages one row ``(kind, site, seq or ref, at_ns, values)``;
    # _flush() encodes the staged rows together.

    def begin(self, site: int, *values: Any,
              at_ns: Optional[int] = None) -> Optional[int]:
        """Open a span; returns its ``seq`` as the handle for :meth:`end`,
        or None (a no-op handle) when over capacity."""
        seq = self._seq
        if seq >= self._mark and not self._pass_mark():
            return None
        self._seq = seq = seq + 1
        self._stage.append((_BEGIN, site, seq,
                            self.env.now if at_ns is None else at_ns, values))
        return seq

    def end(self, handle: Optional[int], site: int = 0, *values: Any,
            at_ns: Optional[int] = None) -> None:
        """Close a span from :meth:`begin`, adding the ``site``'s args.

        Tolerates the None handle, and ignores a handle from before the
        last :meth:`clear`.  END rows are never refused: each belongs to
        a record ``max_records`` already admitted.
        """
        if handle is not None and handle > self._floor:
            self._stage.append((_END, site, handle,
                                self.env.now if at_ns is None else at_ns,
                                values))

    def complete(self, site: int, start_ns: int, end_ns: int,
                 *values: Any) -> Optional[int]:
        """Record an already-finished interval in one call."""
        seq = self._seq
        if seq >= self._mark and not self._pass_mark():
            return None
        self._seq = seq = seq + 1
        self._stage.append((_COMPLETE, site, seq, start_ns,
                            (end_ns, *values)))
        return seq

    def instant(self, site: int, *values: Any,
                at_ns: Optional[int] = None) -> Optional[int]:
        seq = self._seq
        if seq >= self._mark and not self._pass_mark():
            return None
        self._seq = seq = seq + 1
        self._instant_count += 1
        self._stage.append((_INSTANT, site, seq,
                            self.env.now if at_ns is None else at_ns, values))
        return seq

    def _pass_mark(self) -> bool:
        """At ``_mark`` records: refuse the next one if that is the
        capacity, else flush the stage and move the mark on."""
        capacity = self._floor + self.max_records
        if self._seq >= capacity:
            self.dropped += 1
            return False
        self._flush()
        self._mark = min(self._seq + STAGE_RECORDS, capacity)
        return True

    def _flush(self) -> None:
        """The one recording path: encode the staged rows as a new chunk.

        A row that cannot be encoded raises here and stays staged, so the
        error repeats on every later flush or read instead of leaving a
        log with a hole in it.
        """
        stage = self._stage
        if not stage:
            return
        cells: list[int] = []
        extend, append = cells.extend, cells.append
        ids, arity = self._value_ids, self._arity
        for kind, site, ref, at_ns, values in stage:
            if len(values) != arity[site] + (kind == _COMPLETE):
                raise ValueError(f"site {self._sites[site]} does not take "
                                 f"the values {values}")
            extend((kind, site, ref, at_ns))
            for value in values:
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
        self._floor = self._mark = self._seq    # handles <= floor are stale
        self._instant_count = 0
        self.dropped = 0
        # The read index, extended over new chunks by _index(): where each
        # span / instant row sits, and where the END row of the record
        # with seq ``_floor + 1 + i`` sits (-1: none yet).
        self._span_rows = array("q")
        self._instant_rows = array("q")
        self._end_rows = array("q")
        self._indexed = 0           # chunks scanned so far

    # -- reading -------------------------------------------------------------------

    def _index(self) -> None:
        self._flush()
        chunks, arity, floor = self._chunks, self._arity, self._floor
        spans, instants, ends = (self._span_rows, self._instant_rows,
                                 self._end_rows)
        for number in range(self._indexed, len(chunks)):
            chunk = chunks[number]
            offset, size = 0, len(chunk)
            while offset < size:
                kind = chunk[offset]
                if kind == _END:
                    ends[chunk[offset + 2] - floor - 1] = (
                        number << _SHIFT | offset)
                else:
                    ends.append(-1)
                    (instants if kind == _INSTANT else spans).append(
                        number << _SHIFT | offset)
                offset += (4 + (kind == _COMPLETE)
                           + arity[chunk[offset + 1]])
        self._indexed = len(chunks)

    def _args(self, row: int, skip: int = 4) -> dict:
        """The args of the row at ``row``, after its first ``skip`` cells."""
        chunk, offset = self._chunks[row >> _SHIFT], row & _OFFSET
        keys, values = self._sites[chunk[offset + 1]][3], self._values
        cells = chunk[offset + skip:offset + skip + len(keys)]
        return {key: cell if cell < _REF else values[cell - _REF]
                for key, cell in zip(keys, cells)}

    def _derive(self, row: int):
        """The :class:`Span` or :class:`Instant` the row at ``row`` opens."""
        chunk, offset = self._chunks[row >> _SHIFT], row & _OFFSET
        kind, site, seq, at_ns = chunk[offset:offset + 4]
        name, category, track, _ = self._sites[site]
        if kind == _INSTANT:
            return Instant(name, category, track, at_ns,
                           self._args(row) or None, seq)
        if kind == _COMPLETE:
            return Span(name, category, track, at_ns, chunk[offset + 4],
                        self._args(row, skip=5) or None, seq)
        end_ns, args = None, self._args(row)
        end_row = self._end_rows[seq - self._floor - 1]
        if end_row >= 0:
            end_ns = self._chunks[end_row >> _SHIFT][(end_row & _OFFSET) + 3]
            args.update(self._args(end_row))
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
