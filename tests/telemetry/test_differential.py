"""The row log against the object recorder it replaced.

Tracing is passive, so running one seeded scenario twice — once with
``Tracer``, once with ``ObjectRecorder`` installed in its place — feeds
both the same calls in the same order; what each then reads back must be
equal, record for record and as exported documents.  A Hypothesis
property does the same over arbitrary call sequences and arg values,
comparing *types* too (``True`` is not ``1``).
"""

import itertools
from dataclasses import replace

import pytest
from hypothesis import given, strategies as st

from repro.clib.client import RemoteAccessError
from repro.cluster import ClioCluster
from repro.faults.injector import FaultInjector
from repro.faults.schedule import FaultSchedule
from repro.params import CacheParams, ClioParams
from repro.sim import Environment
from repro.telemetry.export import chrome_trace
from repro.telemetry.spans import Tracer
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
    spans = [(s.name, s.category, s.track, s.start_ns, s.end_ns,
              exact(s.args), s.seq) for s in tracer.spans]
    instants = [(i.name, i.category, i.track, i.at_ns, exact(i.args), i.seq)
                for i in tracer.instants]
    return spans, instants, tracer.dropped


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


@pytest.mark.parametrize("scenario", [rw_under_loss, chaos, cached_ping_pong])
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
    assert len(rows.tracer.spans) > 20
    assert read_back(rows.tracer) == read_back(objects.tracer)
    assert chrome_trace(rows.tracer) == chrome_trace(objects.tracer)


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
#: (method, site or end-site number, handle number, timestamp, values)
calls = st.lists(st.tuples(
    st.sampled_from(["begin", "end", "complete", "instant", "clear"]),
    st.integers(0, 3), st.integers(0, 40), st.integers(0, 10**12),
    st.lists(values, min_size=3, max_size=3)), max_size=60)


@given(calls, st.sampled_from([5, 1_000_000]))
def test_any_call_sequence_round_trips(sequence, max_records):
    env = Environment()
    recorders = [Tracer(env, max_records), ObjectRecorder(env, max_records)]
    sites = [[recorder.site(f"s{arity}", "c", f"t{arity % 2}",
                            [f"k{i}" for i in range(arity)])
              for arity in range(4)] for recorder in recorders]
    end_sites = [[recorder.end_site(*(f"e{i}" for i in range(arity)))
                  for arity in range(4)] for recorder in recorders]
    handles = [[], []]
    for method, arity, which, at_ns, row in sequence:
        row = row[:arity]
        for recorder, site, end_site, held in zip(recorders, sites,
                                                  end_sites, handles):
            if method == "begin":
                held.append(recorder.begin(site[arity], *row, at_ns=at_ns))
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
