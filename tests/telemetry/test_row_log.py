"""Edge cases of the tracer's row storage: admission, stale handles, the
read-only views, and the memory it is allowed to hold."""

import struct
import tracemalloc

import pytest

from repro.cluster import ClioCluster
from repro.sim import Environment
from repro.telemetry.export import chrome_trace
from repro.telemetry.spans import (COMPLETE, END, INSTANT, STAGE_ROWS,
                                   Span, Tracer)

MB = 1 << 20
#: What a record may cost in the log, index included: a primed 64 B echo
#: is 3 rows of 22 cells (a row's head names its site and kind, its seq
#: is its place in the log, and the board's three records share their
#: times and request id) plus 11 index cells for its 5 records, 52.8 B
#: each (tests/telemetry/test_hook_budget.py lists the rows).  It was 3
#: rows of 33 cells and 6 index cells, 62.4 B.  The Span / dict /
#: boxed-int objects the log replaced held ~440 B per record.
BYTES_PER_RECORD = 53


def test_end_rows_are_never_refused_or_counted():
    env = Environment()
    tracer = Tracer(env, max_records=2)
    site = tracer.site("a", "t", "x")
    first, second = tracer.begin(site), tracer.begin(site)
    assert tracer.begin(site) is None and tracer.instant(site) is None
    assert tracer.dropped == 2
    env.run(until=7)
    tracer.end(first)
    tracer.end(second, tracer.end_site("why"), "done")
    assert len(tracer) == len(tracer.spans) == 2 and tracer.dropped == 2
    assert [span.end_ns for span in tracer.spans] == [7, 7]
    assert tracer.spans[1].args == {"why": "done"}


def test_end_of_a_refused_handle_records_nothing():
    tracer = Tracer(Environment(), max_records=1)
    site = tracer.site("a", "t", "x")
    tracer.begin(site)
    held = tracer.nbytes
    tracer.end(tracer.begin(site), tracer.end_site("k"), 1)
    assert tracer.nbytes == held and tracer.spans[0].open


def test_span_closed_after_clear_is_ignored():
    env = Environment()
    tracer = Tracer(env)
    site = tracer.site("a", "t", "x")
    stale = tracer.begin(site)
    tracer.clear()
    fresh = tracer.begin(site)
    assert fresh != stale               # a handle is never reused
    env.run(until=5)
    tracer.end(stale)
    assert len(tracer.spans) == 1 and tracer.spans[0].open
    tracer.end(fresh)
    assert tracer.spans[0].end_ns == 5


def test_open_span_reads_none_and_exports_as_begin():
    tracer = Tracer(Environment())
    tracer.begin(tracer.site("crashed", "fault", "mn0"))
    assert tracer.spans[0].end_ns is None and tracer.spans[0].open
    event, = [e for e in chrome_trace(tracer)["traceEvents"]
              if e["name"] == "crashed"]
    assert event["ph"] == "B" and "dur" not in event


def test_views_are_read_only_sequences():
    tracer = Tracer(Environment())
    site = tracer.site("s", "t", "x", ("n",))
    for n in range(5):
        tracer.complete(site, n, n + 1, n)
        tracer.instant(site, n)
    spans, instants = tracer.spans, tracer.instants
    assert len(spans) == len(instants) == 5
    assert isinstance(spans[0], Span)
    assert spans[-1].args == {"n": 4} and instants[-2].args == {"n": 3}
    assert [span.start_ns for span in spans[3:]] == [3, 4]
    assert spans[1:4:2] == [spans[1], spans[3]]
    assert list(spans) == list(spans) == spans[:]
    assert spans[2] in spans and spans.index(spans[2]) == 2
    with pytest.raises(IndexError):
        spans[5]
    with pytest.raises(TypeError):
        spans[0] = spans[1]
    assert not hasattr(spans, "append")


def test_reads_follow_the_log_across_chunks():
    """A read between writes sees what is there; an END rows away from
    its BEGIN (another chunk) still closes it."""
    env = Environment()
    tracer = Tracer(env)
    site, tail = tracer.site("s", "t", "x", ("n",)), tracer.end_site("m")
    first = tracer.begin(site, -1)
    assert tracer.spans[0].open
    for n in range(3 * STAGE_ROWS):
        tracer.complete(site, n, n, n)
    assert len(tracer.spans) == 3 * STAGE_ROWS + 1
    assert tracer.spans[-1].args == {"n": 3 * STAGE_ROWS - 1}
    env.run(until=9)
    tracer.end(first, tail, "late")
    assert tracer.spans[0].end_ns == 9
    assert tracer.spans[0].args == {"n": -1, "m": "late"}
    assert [span.seq for span in tracer.spans] == list(
        range(1, 3 * STAGE_ROWS + 2))


def typed_sites(tracer):
    span = tracer.site("work", "t", "x", {"who": "cn0", "n": int,
                                          "why": None})
    point = tracer.site("done", "t", "x", {"n": int, "ok": True})
    close = tracer.site(None, None, None, {"outcome": "ok", "rtt": int})
    return span, point, close


def test_group_row_is_its_parts_in_order():
    """One call, one row; the parts read back as records of their own,
    constants from the site, consecutive seqs, the END closing its span."""
    env = Environment()
    tracer = Tracer(env)
    span, point, close = typed_sites(tracer)
    group = tracer.group((COMPLETE, span, 0, 1, 2), (INSTANT, point, 3, 4),
                         (END, close, 5, 6, 7))
    held = tracer.begin(tracer.site("outer", "t", "x"))
    before = tracer.nbytes
    tracer.stamp(group(3, 9, 7, 9, 7, held, 12, 5))
    assert tracer.nbytes - before == 8 * 9          # the head + 8 cells
    outer, work = tracer.spans
    done, = tracer.instants
    assert (outer.end_ns, outer.args) == (12, {"outcome": "ok", "rtt": 5})
    assert (work.start_ns, work.end_ns, work.seq) == (3, 9, 2)
    assert work.args == {"who": "cn0", "n": 7, "why": None}
    assert (done.at_ns, done.seq) == (9, 3)
    assert done.args == {"n": 7, "ok": True} and done.args["ok"] is True
    assert len(tracer) == 3 and len(tracer.spans) == 2


def test_group_row_over_capacity_still_ends_its_span():
    tracer = Tracer(Environment(), max_records=2)
    span, point, close = typed_sites(tracer)
    group = tracer.group((COMPLETE, span, 0, 1, 2), (INSTANT, point, 3, 4),
                         (END, close, 5, 6, 7))
    held = tracer.begin(tracer.site("outer", "t", "x"))
    tracer.stamp(group(3, 9, 7, 9, 7, held, 12, 5))    # room for one
    assert tracer.dropped == 2 and len(tracer) == 1
    outer, = tracer.spans
    assert (outer.end_ns, outer.args) == (12, {"outcome": "ok", "rtt": 5})


def test_refused_row_keeps_no_end_of_a_refused_handle():
    """Past capacity, ``open`` hands out no handle and a hot hook stamps
    0 in its place: the refused row it then writes leaves nothing behind,
    so the log stays bounded however long the run goes on."""
    tracer = Tracer(Environment(), max_records=1)
    span, _point, close = typed_sites(tracer)
    row = tracer.opening(tracer.site("outer", "t", "x", {"n": int}))
    group = tracer.group((COMPLETE, span, 0, 1, 2), (END, close, 3, 1, 4))
    tracer.open(row, (1,))
    held = tracer.nbytes
    tracemalloc.start()
    try:
        for n in range(1000):
            handle = tracer.open(row, (n,))
            tracer.stamp(group(0, n, n, handle or 0, n))
        grown, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert tracer.nbytes == held and tracer.dropped == 2000
    assert grown < 2048     # a kept END row or empty chunk: ~90 B each
    assert len(tracer) == 1 and tracer.spans[0].open


def test_open_that_raises_leaves_later_spans_paired():
    """Values ``open``'s row cannot pack take no slot: the spans opened
    after them still pair with their ENDs."""
    env = Environment()
    tracer = Tracer(env)
    site = tracer.site("s", "t", "x", {"n": int})
    row, close = tracer.opening(site), tracer.end_site("m")
    first = tracer.open(row, (1,))
    for values in ((1, 2), (2**63,), ("text",)):
        with pytest.raises(struct.error):
            tracer.open(row, values)
    second = tracer.open(row, (3,))
    assert second == first + 1
    env.run(until=5)
    tracer.end(second, close, "b")
    tracer.end(first, close, "a")
    assert [(span.end_ns, span.args) for span in tracer.spans] == [
        (5, {"n": 1, "m": "a"}), (5, {"n": 3, "m": "b"})]


def test_group_row_ignores_refused_and_stale_handles():
    tracer = Tracer(Environment())
    span, _point, close = typed_sites(tracer)
    group = tracer.group((COMPLETE, span, 0, 1, 2), (END, close, 3, 4, 5))
    stale = tracer.begin(tracer.site("outer", "t", "x"))
    tracer.clear()
    fresh = tracer.begin(tracer.site("outer", "t", "x"))
    tracer.stamp(group(0, 1, 1, stale, 1, 1))
    tracer.stamp(group(0, 2, 2, 0, 2, 2))          # 0: a refused begin
    assert tracer.spans[0].open and len(tracer.spans) == 3
    tracer.stamp(group(0, 3, 3, fresh, 3, 3))
    assert tracer.spans[0].end_ns == 3


def test_group_parts_must_be_typed():
    tracer = Tracer(Environment())
    with pytest.raises(ValueError, match="not typed"):
        tracer.group((COMPLETE, tracer.site("s", "t", "x", ("n",)), 0, 1, 2))


def test_typed_cells_hold_any_int64_and_nothing_else():
    tracer = Tracer(Environment())
    site = tracer.site("s", "t", "x", {"n": int})
    for n in (2**62, -2**63, 2**63 - 1):
        tracer.instant(site, n)
    assert [i.args["n"] for i in tracer.instants] == [2**62, -2**63,
                                                      2**63 - 1]
    # Checked when the row is packed, at the call, which stages nothing.
    with pytest.raises(OverflowError):
        tracer.instant(site, 2**63)
    with pytest.raises(TypeError):
        tracer.instant(site, "text")
    assert len(tracer.instants) == 3
    row = tracer.group((INSTANT, site, 0, 1))
    with pytest.raises(struct.error):
        tracer.stamp(row(0, 2**63))


def test_wrong_value_count_names_the_site():
    """A call checks its values and stages nothing when they do not fit;
    so does a group's row, as ``struct`` packs it."""
    tracer = Tracer(Environment())
    untyped = tracer.site("s", "t", "x", ("a", "b"))
    typed = tracer.site("u", "t", "x", {"n": int})
    for call in (lambda: tracer.begin(untyped, 1),
                 lambda: tracer.complete(untyped, 0, 1, 1, 2, 3),
                 lambda: tracer.end(tracer.begin(untyped, 1, 2), untyped),
                 lambda: tracer.instant(typed)):
        with pytest.raises(ValueError, match="'[su]', 't', 'x'"):
            call()
    assert len(tracer.spans) == 1 and tracer.spans[0].open
    with pytest.raises(struct.error):
        tracer.stamp(tracer.group((INSTANT, typed, 0, 1))(1))
    assert len(tracer) == 1


def test_open_is_begin_with_its_values_in_one_tuple():
    env = Environment()
    tracer = Tracer(env, max_records=2)
    site = tracer.site("s", "t", "x", {"mn": "mn0", "n": int})
    row = tracer.opening(site)
    env.run(until=4)
    assert tracer.open(row, (7,)) == 1 and tracer.begin(site, 8) == 2
    assert tracer.open(row, (9,)) is None and tracer.dropped == 1
    assert [(span.start_ns, span.args) for span in tracer.spans] == [
        (4, {"mn": "mn0", "n": 7}), (4, {"mn": "mn0", "n": 8})]
    with pytest.raises(ValueError, match="not typed"):
        tracer.opening(tracer.site("u", "t", "x", ("n",)))


def test_group_parts_read_shared_cells():
    """A part names the cells it reads; one cell can serve several."""
    tracer = Tracer(Environment())
    span, point, close = typed_sites(tracer)
    group = tracer.group((COMPLETE, span, 0, 1, 2), (INSTANT, point, 1, 2),
                         (END, close, 3, 1, 4))
    held = tracer.begin(tracer.site("outer", "t", "x"))
    before = tracer.nbytes
    tracer.stamp(group(3, 9, 7, held, 5))
    assert tracer.nbytes - before == 8 * 6          # the head + 5 cells
    outer, work = tracer.spans
    done, = tracer.instants
    assert (outer.end_ns, outer.args) == (9, {"outcome": "ok", "rtt": 5})
    assert (work.start_ns, work.end_ns, work.args["n"]) == (3, 9, 7)
    assert (done.at_ns, done.args["n"], done.seq) == (9, 7, 3)
    with pytest.raises(ValueError, match="reads 3 cells"):
        tracer.group((COMPLETE, span, 0, 1))
    with pytest.raises(ValueError, match="reads 2 cells"):
        tracer.group((INSTANT, point))          # a part names its cells
    with pytest.raises(ValueError, match="unread"):
        tracer.group((INSTANT, point, 0, 2))


def primed_echo(ops):
    cluster = ClioCluster(seed=0, mn_capacity=256 * MB)
    thread = cluster.cn(0).process("mn0").thread()
    box = {}

    def prime():
        box["va"] = yield from thread.ralloc(4 * MB)
        yield from thread.rwrite(box["va"], bytes(64))

    def echo():
        for _ in range(ops):
            yield from thread.rread(box["va"], 64)

    cluster.run(until=cluster.env.process(prime()))
    tracer = cluster.enable_tracing()
    cluster.run(until=cluster.env.process(echo()))
    return tracer


def test_bytes_per_record_budget():
    tracer = primed_echo(ops=600)
    records = len(tracer)
    assert records == 5 * 600           # 4 spans + 1 instant per read
    logged = tracer.nbytes / records
    list(tracer.spans), list(tracer.instants)       # builds the index
    indexed = tracer.nbytes / records
    print(f"\n{records} records: {logged:.1f} B/record logged, "
          f"{indexed:.1f} B/record indexed (budget {BYTES_PER_RECORD})")
    assert logged < indexed <= BYTES_PER_RECORD
    tracer.clear()
    assert tracer.nbytes == 0 and len(tracer) == 0


def test_reading_streams_instead_of_materialising():
    """Aggregating or exporting N records must not hold N Span objects
    (~300 B each with their args): the index costs ~10 B a record."""
    tracer = primed_echo(ops=2000)
    records = len(tracer)
    tracemalloc.start()
    try:
        summary = tracer.summary()
        matched = sum(1 for _ in tracer.spans)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert matched == sum(entry["count"] for entry in summary.values())
    assert peak < 40 * records
