"""Edge cases of the tracer's row storage: admission, stale handles, the
read-only views, and the memory it is allowed to hold."""

import tracemalloc

import pytest

from repro.cluster import ClioCluster
from repro.sim import Environment
from repro.telemetry.export import chrome_trace
from repro.telemetry.spans import STAGE_RECORDS, Span, Tracer

MB = 1 << 20
#: What a record may cost in the log, index included.  The Span / dict /
#: boxed-int objects this replaced held ~440 B per record.
BYTES_PER_RECORD = 128


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
    for n in range(3 * STAGE_RECORDS):
        tracer.complete(site, n, n, n)
    assert len(tracer.spans) == 3 * STAGE_RECORDS + 1
    assert tracer.spans[-1].args == {"n": 3 * STAGE_RECORDS - 1}
    env.run(until=9)
    tracer.end(first, tail, "late")
    assert tracer.spans[0].end_ns == 9
    assert tracer.spans[0].args == {"n": -1, "m": "late"}
    assert [span.seq for span in tracer.spans] == list(
        range(1, 3 * STAGE_RECORDS + 2))


def test_wrong_value_count_names_the_site():
    tracer = Tracer(Environment())
    tracer.begin(tracer.site("s", "t", "x", ("a", "b")), 1)
    for _ in range(2):                  # and keeps saying so
        with pytest.raises(ValueError, match="'s', 't', 'x'"):
            tracer.spans[:]


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
    (~300 B each with their args): the index costs 16 B a record."""
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
