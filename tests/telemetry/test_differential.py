"""The row log against the object recorder it replaced.

Tracing is passive, so running one seeded scenario twice — once with
``Tracer``, once with ``ObjectRecorder`` installed in its place — feeds
both the same calls in the same order; what each then reads back must be
equal, record for record and as exported documents.  A record is
compared by ``(name, category, track, start_ns, end_ns, typed args)``;
its ``seq`` is an order — the two must list the same records in the same
order, spans and instants interleaved alike — not a value.  A Hypothesis
property does the same over arbitrary call sequences (completion-time
group rows included) and arg values, comparing *types* too (``True`` is
not ``1``).
"""

import itertools
from dataclasses import replace

import pytest
from hypothesis import example, given, strategies as st

from repro.clib.client import RemoteAccessError
from repro.cluster import ClioCluster
from repro.faults.injector import FaultInjector
from repro.faults.schedule import FaultSchedule
from repro.params import CacheParams, ClioParams
from repro.sim import Environment
from repro.telemetry.export import chrome_trace, render_dashboard
from repro.telemetry.spans import COMPLETE, END, INSTANT, Tracer
from repro.transport.clib_transport import RequestFailed
from tests.telemetry.object_recorder import ObjectRecorder

KB, MB = 1 << 10, 1 << 20
#: PIDs are pinned: they are span args, and the shared counter moves.
PID = 7001


def exact(args):
    """Args with every value's type spelled out."""
    if args is None:
        return None
    return [(key, type(value).__name__, value) for key, value in args.items()]


def read_back(tracer):
    """Every record in ``seq`` order, without the ``seq`` itself."""
    spans = [(s.seq, (s.name, s.category, s.track, s.start_ns, s.end_ns,
                      exact(s.args))) for s in tracer.spans]
    instants = [(i.seq, (i.name, i.category, i.track, i.at_ns,
                         exact(i.args))) for i in tracer.instants]
    for view in (spans, instants):      # each view lists in seq order
        seqs = [seq for seq, _ in view]
        assert seqs == sorted(set(seqs))
    return ([record for _, record in sorted(spans + instants)],
            len(spans), tracer.dropped)


# -- seeded cluster scenarios -----------------------------------------------------


def rw_under_loss():
    """Retries, timeouts, drops: the ``test_spans.py`` loss scenario."""
    base = ClioParams.prototype()
    cluster = ClioCluster(
        params=replace(base, network=replace(base.network, loss_rate=0.25),
                       clib=replace(base.clib, max_retries=8)),
        seed=9, mn_capacity=256 * MB, layers=("tracing",))
    thread = cluster.cn(0).process("mn0", pid=PID).thread()

    def app():
        va = yield from thread.ralloc(4 * MB)
        for index in range(8):
            yield from thread.rwrite(va, bytes([index]) * 32)
            yield from thread.rread(va, 32)
        yield from thread.rfree(va)

    cluster.run(until=cluster.env.process(app()))
    return cluster


def chaos():
    """Corruption and jitter under a crash, a restart and an ARM stall,
    with the health monitor watching; ops that fail are part of the run."""
    base = ClioParams.prototype()
    cluster = ClioCluster(
        params=replace(base, network=replace(
            base.network, loss_rate=0.05, corruption_rate=0.05,
            jitter_ns=200)),
        seed=5, num_cns=2, mn_capacity=256 * MB,
        layers=("health", "tracing"))
    FaultInjector(cluster, (
        FaultSchedule()
        .crash_board(60_000, "mn0", restart_after_ns=350_000)
        .stall_slowpath(500_000, "mn0", duration_ns=30_000))).arm()

    def app(thread, fill):
        try:
            va = yield from thread.ralloc(1 * MB)
        except (RequestFailed, RemoteAccessError):
            return
        for index in range(40):
            try:
                yield from thread.rwrite(va + 64 * index, bytes([fill]) * 64)
                yield from thread.rread(va + 64 * index, 64)
                if index % 10 == 9:
                    yield from thread.rfree(
                        (yield from thread.ralloc(64 * KB)))
            except (RequestFailed, RemoteAccessError):
                pass

    workers = [cluster.env.process(app(
        cluster.cn(index).process("mn0", pid=PID + index).thread(), index + 1))
        for index in range(2)]
    cluster.run(until=cluster.env.all_of(workers))
    cluster.run(until=cluster.env.now + 200_000)
    return cluster


def cached_ping_pong():
    """Directory requests, fills and recalls (``dir:*`` / ``cache:*``)."""
    cluster = ClioCluster(
        params=replace(ClioParams.prototype(), cache=CacheParams(
            policy="back", line_bytes=512, capacity_lines=8)),
        seed=3, num_cns=2, mn_capacity=256 * MB,
        layers=("caching", "tracing"))
    t0, t1 = (cluster.cn(index).process("mn0", pid=PID).thread()
              for index in range(2))

    def app():
        va = yield from t0.ralloc(64 * KB)
        for turn in range(6):
            writer, reader = (t0, t1) if turn % 2 else (t1, t0)
            yield from writer.rwrite(va, bytes([turn]) * 64)
            yield from reader.rread(va, 64)

    cluster.run(until=cluster.env.process(app()))
    return cluster


def stopped_mid_request():
    """A deadline falls while a read is on the wire."""
    cluster = ClioCluster(seed=1, mn_capacity=256 * MB, layers=("tracing",))
    thread = cluster.cn(0).process("mn0", pid=PID).thread()

    box = {}

    def prime():
        box["va"] = yield from thread.ralloc(4 * MB)
        yield from thread.rwrite(box["va"], bytes(64))

    cluster.run(until=cluster.env.process(prime()))
    cluster.env.process(thread.rread(box["va"], 64))
    cluster.run(until=cluster.env.now + 1_000)
    return cluster


def retries_exhausted():
    """Every attempt of a read times out against a crashed board."""
    cluster = ClioCluster(seed=2, mn_capacity=256 * MB, layers=("tracing",))
    thread = cluster.cn(0).process("mn0", pid=PID).thread()

    def app():
        va = yield from thread.ralloc(4 * MB)
        cluster.mn.crash()
        with pytest.raises(RequestFailed):
            yield from thread.rread(va, 64)

    cluster.run(until=cluster.env.process(app()))
    return cluster


@pytest.mark.parametrize("scenario", [rw_under_loss, chaos, cached_ping_pong,
                                      stopped_mid_request, retries_exhausted])
def test_rows_read_back_as_the_object_recorder_did(scenario, monkeypatch):
    def run():
        # Request IDs are span args too, from a process-wide counter.
        request_ids = itertools.count(1)
        for user in ("transport.clib_transport", "cache.directory"):
            monkeypatch.setattr(f"repro.{user}._request_ids", request_ids)
        return scenario()

    rows = run()
    monkeypatch.setattr("repro.cluster.Tracer", ObjectRecorder)
    objects = run()
    assert isinstance(rows.tracer, Tracer)
    assert isinstance(objects.tracer, ObjectRecorder)
    assert rows.env.now == objects.env.now
    assert len(rows.tracer.spans) > 5
    assert read_back(rows.tracer) == read_back(objects.tracer)
    assert chrome_trace(rows.tracer) == chrome_trace(objects.tracer)
    assert render_dashboard(tracer=rows.tracer) == render_dashboard(
        tracer=objects.tracer)


def test_request_in_flight_at_the_deadline_reads_open():
    """The request kept its BEGIN row; its attempt is a completion-time
    record and is not there yet."""
    tracer = stopped_mid_request().tracer
    *settled, inflight = tracer.find_spans("request:")
    assert [span.name for span in settled] == ["request:alloc",
                                               "request:write"]
    assert not any(span.open for span in settled)
    assert inflight.name == "request:read" and inflight.open
    assert inflight.args == {"mn": "mn0", "pid": PID, "va": inflight.args["va"],
                             "size": 64}
    assert [span.name for span in tracer.find_spans("attempt:")] == [
        "attempt:alloc", "attempt:write"]
    assert [span.seq for span in tracer.spans if span.open] == [inflight.seq]


def test_exhausted_retries_read_failed_with_every_attempt():
    cluster = retries_exhausted()
    tracer = cluster.tracer
    request = tracer.find_spans("request:read")[-1]
    attempts = tracer.find_spans("attempt:read")
    sent = cluster.params.clib.max_retries + 1
    assert request.args["outcome"] == "failed"
    assert request.args["retries"] == sent - 1
    assert request.args["reason"] == "timeout" and not request.open
    assert len(attempts) == sent
    assert all(span.args["outcome"] == "timeout" for span in attempts)
    first = attempts[0].args["request_id"]
    assert [span.args["retry_of"] for span in attempts] == (
        [None] + [first] * (sent - 1))
    assert all(request.start_ns < span.start_ns < span.end_ns
               <= request.end_ns for span in attempts)
    assert not tracer.find_spans("mn:read")         # the port was dark


def test_scenarios_cover_the_vocabulary():
    """The three runs between them exercise every hook family."""
    names = set()
    for scenario in (rw_under_loss, chaos, cached_ping_pong):
        tracer = scenario().tracer
        names |= {span.name.partition(":")[0] for span in tracer.spans}
        names |= {instant.name.partition(":")[0]
                  for instant in tracer.instants}
    assert names >= {"request", "attempt", "mn", "mn_response", "fastpath",
                     "page_fault", "slowpath", "arm_stall", "crashed",
                     "fault", "drop", "corrupt", "board_down", "board_up",
                     "dir", "cache"}


# -- arbitrary call sequences -------------------------------------------------------

values = st.one_of(
    st.integers(-4, 4), st.integers(-2**70, 2**70),
    st.sampled_from([2**62 - 1, 2**62, -2**62, -2**62 - 1, 2**63 - 1,
                     2**63, -2**63, -2**63 - 1]),
    st.none(), st.booleans(), st.text(max_size=3),
    st.floats(allow_nan=False))
int64 = st.one_of(st.integers(-4, 4), st.integers(-2**63, 2**63 - 1),
                  st.sampled_from([2**62 - 1, 2**62, -2**62 - 1, 2**63 - 1,
                                   -2**63]))
#: (method, arity of the site / end-site, handle and group number,
#: timestamp, values of an untyped site, ints of a typed one or a group row)
calls = st.lists(st.tuples(
    st.sampled_from(["begin", "open", "end", "complete", "instant", "record",
                     "clear"]),
    st.integers(0, 3), st.integers(0, 40), st.integers(0, 10**12),
    st.lists(values, min_size=3, max_size=3),
    st.lists(int64, min_size=3, max_size=3)), max_size=60)


def typed_groups(recorder):
    """Group sites over typed sites, and the cells of a row of each from
    ``(handle, at_ns, later_ns, three ints)``.  The last two share cells
    as the hot path's rows do: a CN's settled ``attempt:*`` + the END of
    its ``request:*``, and a board's ``mn:*`` + ``fastpath:*`` +
    ``mn_response``."""
    span = recorder.site("typed", "c", "t0", {"a": int, "k": "const",
                                              "n": None})
    point = recorder.site("point", "c", "t1", {"flag": True, "b": int})
    close = recorder.site(None, None, None, {"why": "done", "x": int})
    attempt = recorder.site("attempt", "c", "t0", {
        "request_id": int, "mn": "mn0", "retry_of": None, "outcome": "ok"})
    settle = recorder.site(None, None, None, {
        "outcome": "ok", "retries": 0, "request_id": int, "rtt_ns": int})
    handler = recorder.site("mn", "c", "t1", {
        "request_id": int, "src": "cn0", "discarded": False})
    stages = recorder.site("fastpath", "c", "t1",
                           {f"stage{n}": int for n in range(5)})
    response = recorder.site("mn_response", "c", "t1", {
        "request_id": int, "type": "response", "dst": "cn0"})
    return [
        (recorder.group((COMPLETE, span, 0, 1, 2), (INSTANT, point, 3, 4)),
         lambda handle, at, later, i, j, k: (at, later, i, at, j)),
        (recorder.group((COMPLETE, span, 0, 1, 2), (END, close, 3, 4, 5)),
         lambda handle, at, later, i, j, k: (at, later, i, handle, later, j)),
        (recorder.group((INSTANT, point, 0, 1), (END, close, 2, 3, 4),
                        (COMPLETE, span, 5, 6, 7)),
         lambda handle, at, later, i, j, k: (at, i, handle, at, j, at, later,
                                             k)),
        (recorder.group((COMPLETE, attempt, 0, 1, 2),
                        (END, settle, 3, 4, 2, 5)),
         lambda handle, at, later, i, j, k: (at, later, i, handle, later, j)),
        (recorder.group((COMPLETE, handler, 0, 1, 2),
                        (COMPLETE, stages, 0, 1, 3, 4, 5, 6, 7),
                        (INSTANT, response, 1, 2)),
         lambda handle, at, later, i, j, k: (at, later, i, j, k, at, later,
                                             i)),
    ]


#: Full after one ``open`` and four COMPLETEs, then refused rows: a
#: settled one that still ends the open span, a board's, and one that ends
#: handle 0, as a hot hook stamps past capacity.
FULL_THEN_REFUSED = [("open", 2, 0, 0, [0] * 3, [7, 8, 9])] + [
    ("complete", 0, 1, 10, [0] * 3, [0] * 3)] * 4 + [
    ("record", 0, 3, 20, [0] * 3, [1, 2, 3]),
    ("open", 1, 0, 25, [0] * 3, [4, 5, 6]),
    ("record", 0, 4, 30, [0] * 3, [4, 5, 6]),
    ("record", 0, 1, 40, [0] * 3, [7, 8, 9])]


@given(calls, st.sampled_from([5, 1_000_000]))
@example(FULL_THEN_REFUSED, 5)
def test_any_call_sequence_round_trips(sequence, max_records):
    env = Environment()
    recorders = [Tracer(env, max_records), ObjectRecorder(env, max_records)]
    sites = [[recorder.site(f"s{arity}", "c", f"t{arity % 2}",
                            [f"k{i}" for i in range(arity)])
              for arity in range(4)] for recorder in recorders]
    end_sites = [[recorder.end_site(*(f"e{i}" for i in range(arity)))
                  for arity in range(4)] for recorder in recorders]
    groups = [typed_groups(recorder) for recorder in recorders]
    openings = [[recorder.opening(recorder.site(
        f"o{arity}", "c", f"t{arity % 2}",
        {"mn": "mn0", **{f"n{i}": int for i in range(arity)}}))
        for arity in range(4)] for recorder in recorders]
    handles = [[], []]
    for method, arity, which, at_ns, row, ints in sequence:
        row = row[:arity]
        for recorder, site, end_site, group, opening, held in zip(
                recorders, sites, end_sites, groups, openings, handles):
            if method == "record":
                # Closes one of the held handles, if its group has an END.
                group, cells = group[which % len(group)]
                handle = held.pop(which % len(held)) if held else None
                recorder.stamp(group(*cells(handle or 0, at_ns,
                                            at_ns + which, *ints)))
            elif method == "begin":
                held.append(recorder.begin(site[arity], *row, at_ns=at_ns))
            elif method == "open":
                held.append(recorder.open(opening[arity],
                                          tuple(ints[:arity])))
            elif method == "complete":
                recorder.complete(site[arity], at_ns, at_ns + which, *row)
            elif method == "instant":
                recorder.instant(site[arity], *row, at_ns=at_ns)
            elif method == "clear":
                recorder.clear()
            elif held:
                # Each handle is closed at most once: a refused (None)
                # one and one from before a clear() included.
                recorder.end(held.pop(which % len(held)), end_site[arity],
                             *row, at_ns=at_ns)
        assert read_back(recorders[0]) == read_back(recorders[1])
    assert chrome_trace(recorders[0]) == chrome_trace(recorders[1])
