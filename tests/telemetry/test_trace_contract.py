"""What four traced runs read back, pinned as digests.

A change to how records are built or stored — the hook sites, the row
layout, the staging — must leave every record that reads back as it
was: ``(name, category, track, start_ns, end_ns, typed args)`` over
``tracer.spans`` and ``tracer.instants`` merged in ``seq`` order, the
order included.  Each run starts on a primed page, so the records are
the hot path's: a clean echo, a read whose response a downed link drops
(a timed-out attempt, then a retry), a 4 KB write sent in fragments, and
a read whose first attempt a board crash discards mid-traversal.
"""

import hashlib
import itertools

import pytest

from repro.cluster import ClioCluster

MB = 1 << 20
US = 1_000
#: PIDs are pinned: they are span args, and the shared counter moves.
PID = 7001

DIGESTS = {
    "echo": "36e7315aed4602fa666661ba6cfde3e3",
    "dropped_response": "fb38873697e4011cf630fb53cdb85755",
    "fragmented_write": "c4897cee86753a061f41e432674473d4",
    "crash_discarded": "67aeda76a74aa7fbc2fc0de81afef24e",
}


def exact(args):
    """Args with every value's type spelled out."""
    if args is None:
        return None
    return [(key, type(value).__name__, value) for key, value in args.items()]


def read_back(tracer) -> list:
    """Every record in ``seq`` order: a span's start and end, an
    instant's time twice."""
    records = [(span.seq, (span.name, span.category, span.track,
                           span.start_ns, span.end_ns, exact(span.args)))
               for span in tracer.spans]
    records += [(point.seq, (point.name, point.category, point.track,
                             point.at_ns, point.at_ns, exact(point.args)))
                for point in tracer.instants]
    records.sort()
    assert [seq for seq, _ in records] == list(
        range(records[0][0], records[0][0] + len(records)))
    return [record for _, record in records]


def digest(records: list) -> str:
    return hashlib.blake2b(repr(records).encode(), digest_size=16).hexdigest()


def primed_run(monkeypatch, op):
    """A traced cluster with one primed page, then ``op(cluster, thread,
    va)`` (a generator) run to its end; returns what the tracer read back
    for ``op`` alone."""
    monkeypatch.setattr("repro.transport.clib_transport._request_ids",
                        itertools.count(1))
    cluster = ClioCluster(seed=0, mn_capacity=256 * MB, layers=("tracing",))
    thread = cluster.cn(0).process("mn0", pid=PID).thread()
    box = {}

    def prime():
        box["va"] = yield from thread.ralloc(4 * MB)
        yield from thread.rwrite(box["va"], bytes(4096))
        yield from thread.rread(box["va"], 64)

    cluster.run(until=cluster.env.process(prime()))
    cluster.tracer.clear()
    cluster.run(until=cluster.env.process(op(cluster, thread, box["va"])))
    return read_back(cluster.tracer)


def echo(cluster, thread, va):
    for offset in (0, 64, 128):
        assert (yield from thread.rread(va + offset, 64)) == bytes(64)
    yield from thread.rwrite(va, b"e" * 64)


def dropped_response(cluster, thread, va):
    downlink = cluster.topology.downlink("cn0")
    downlink.set_down()
    cluster.env.schedule_callback(5 * US, downlink.set_up)
    assert (yield from thread.rread(va, 64)) == bytes(64)


def fragmented_write(cluster, thread, va):
    yield from thread.rwrite(va, bytes(range(256)) * 16)


def crash_discarded(cluster, thread, va):
    board = cluster.mn
    issued = cluster.env.now
    yield from thread.rread(va, 64)
    served = cluster.tracer.find_spans("mn:read")[-1]
    # The next read reaches the board as long after its issue as this one
    # did; crash it halfway through its traversal, restart it 20 µs on.
    middle = (served.start_ns + served.end_ns) // 2 - issued
    cluster.env.schedule_callback(middle, board.crash)
    cluster.env.schedule_callback(middle + 20 * US, board.restart)
    assert (yield from thread.rread(va + 64, 64)) == bytes(64)


@pytest.mark.parametrize("op", [echo, dropped_response, fragmented_write,
                                crash_discarded])
def test_what_a_traced_run_reads_back_is_pinned(op, monkeypatch):
    records = primed_run(monkeypatch, op)
    assert digest(records) == DIGESTS[op.__name__], records


def test_the_runs_reach_the_paths_they_are_named_for(monkeypatch):
    names = {op.__name__: [record[0] for record in primed_run(monkeypatch, op)]
             for op in (dropped_response, fragmented_write, crash_discarded)}
    assert "drop:down" in names["dropped_response"]
    assert names["dropped_response"].count("attempt:read") == 2
    assert names["fragmented_write"].count("fastpath:write") == 3
    assert "crashed" in names["crash_discarded"]
    assert names["crash_discarded"].count("mn:read") == 3
