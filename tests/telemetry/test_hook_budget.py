"""The tracing budget of one op, as exact counts (no wall clock).

The sibling of ``tests/integration/test_event_budget.py``: every
recording call a traced op makes is listed here with the cells its row
holds and the reason it is a call of its own.  A hot-path record is
written once, when the node's part of the request is over; a hook that
creeps back onto the request path — a BEGIN beside its END, an instant
beside the span it sits in — fails this test by name, not as a ratio on
a shared runner (docs/observability.md, *What tracing costs*).
"""

from array import array

import pytest

from repro.cluster import ClioCluster
from repro.telemetry.spans import END, Tracer

MB = 1 << 20
US = 1_000


class CountingTracer(Tracer):
    """A ``Tracer`` that lists its recording calls: ``(method, what the
    site records, cells the row holds)``."""

    def __init__(self, env, max_records=1_000_000):
        self.labels, self.calls = {}, []    # site() runs in __init__
        super().__init__(env, max_records)
        self.stamp = self._stamp

    def site(self, name, category, track, keys=()):
        site = super().site(name, category, track, keys)
        self.labels[site] = name or "end"
        return site

    def group(self, *parts):
        row = super().group(*parts)
        self.labels["row", row.args[0]] = " + ".join(
            ("end of " if kind == END else "") + self.labels[site]
            for kind, site, *_cells in parts)
        return row

    def _counted(self, method, label, call, *args, **kwargs):
        before = self.nbytes
        handle = call(*args, **kwargs)
        self.calls.append((method, label, (self.nbytes - before) // 8))
        return handle

    def begin(self, site, *values, **kwargs):
        handle = self._counted("begin", self.labels[site], super().begin,
                               site, *values, **kwargs)
        self.labels[-handle] = self.labels[site]    # what an end() closes
        return handle

    def open(self, row, values):
        label = self.labels[row.args[0] >> 3]       # the head's site
        handle = self._counted("open", label, super().open, row, values)
        self.labels[-handle] = label                # what an end() closes
        return handle

    def end(self, handle, site=0, *values, **kwargs):
        self._counted("end", "end of " + self.labels[-handle], super().end,
                      handle, site, *values, **kwargs)

    def complete(self, site, *values):
        return self._counted("complete", self.labels[site], super().complete,
                             site, *values)

    def instant(self, site, *values, **kwargs):
        return self._counted("instant", self.labels[site], super().instant,
                             site, *values, **kwargs)

    def _stamp(self, row):
        cells = array("q", row)
        label = self.labels["row", cells[0]]
        if "end of end" in label:
            # The settled row: sent, acked, request_id, then the handle.
            label = label.replace("end of end",
                                  "end of " + self.labels[-cells[4]])
        self._counted("stamp", label, self._stage.append, row)


REQUEST = ("open", "request:{op}", 6,
           "written at issue so a request that never settles reads as an "
           "open span; mn is a constant of the site, pid / va / size cells")
SERVED = ("stamp", "mn:{op} + fastpath:{op} + mn_response", 9,
          "the board's whole part — handler, its one traversal, its one "
          "response — once the handler returns; the three share the "
          "start, end and request_id cells")
SETTLED = ("stamp", "attempt:{op} + end of request:{op}", 7,
           "the CN's whole part at settle: the only attempt and the "
           "request's end, from locals _transact already holds; the two "
           "share the request_id cell")

ECHO = [REQUEST, SERVED, SETTLED]

RETRIED = [
    REQUEST,
    ("instant", "drop:down", 3,
     "a cold site: the link drops the first attempt's packet"),
    ("complete", "attempt:{op}", 7,
     "the attempt that timed out, when it did; the request is not over, "
     "so nothing shares its row"),
    SERVED,
    ("complete", "attempt:{op}", 7,
     "the retry that was acked: retry_of is an int here, not the site's "
     "None, so it is not the settled row"),
    ("end", "end of request:{op}", 7,
     "the request's end with retries > 0, beside the attempt's row"),
]

FRAGMENT = [
    ("complete", "fastpath:write", 8,
     "each fragment is a packet with its own traversal, recorded by the "
     "pipeline when it ends"),
    ("complete", "mn:write", 6,
     "and its own handler, which sent nothing: no response to share a "
     "row with"),
]
ACK = ("instant", "mn_response", 5,
       "one ack for the whole write, sent by the last fragment's handler "
       "between its traversal's end and its own return")
FRAGMENTED = [REQUEST, *FRAGMENT, *FRAGMENT, FRAGMENT[0], ACK, FRAGMENT[1],
              SETTLED]

DATA = ("instant", "mn_response", 5,
        "a read's data larger than the MTU goes back in fragments, each a "
        "packet of its own")
LARGE_READ = [
    REQUEST,
    ("complete", "fastpath:read", 8,
     "the traversal, recorded when it ends, before any response is sent"),
    DATA, DATA, DATA,
    ("complete", "mn:read", 6,
     "the board's part, once its last fragment is sent: several responses "
     "do not share one row"),
    SETTLED,
]


def expected(table, op):
    return [(method, label.format(op=op), cells)
            for method, label, cells, _why in table]


@pytest.fixture
def primed(monkeypatch):
    """A traced cluster, one page primed; ``run(op)`` returns the calls
    ``op(thread, va)`` made."""
    monkeypatch.setattr("repro.cluster.Tracer", CountingTracer)
    cluster = ClioCluster(mn_capacity=256 * MB, layers=("tracing",))
    thread = cluster.cn(0).process("mn0").thread()
    box = {}

    def prime():
        box["va"] = yield from thread.ralloc(4 * MB)
        yield from thread.rwrite(box["va"], bytes(4096))
        yield from thread.rread(box["va"], 64)

    cluster.run(until=cluster.env.process(prime()))

    def run(op):
        cluster.tracer.calls.clear()
        cluster.run(until=cluster.env.process(op(thread, box["va"])))
        return cluster.tracer.calls

    run.cluster = cluster
    return run


def test_one_echo_makes_exactly_these_three_calls(primed):
    assert primed(lambda thread, va: thread.rread(va, 64)) == expected(
        ECHO, "read")
    # A 64 B write is the same round trip: payload out, bare ack back.
    assert primed(lambda thread, va: thread.rwrite(va, b"y" * 64)) == (
        expected(ECHO, "write"))
    assert len(ECHO) == 3
    assert sum(cells for _method, _label, cells, _why in ECHO) == 22


def test_a_retried_attempt_is_a_row_of_its_own(primed):
    cluster = primed.cluster
    uplink = cluster.topology.uplink("cn0")
    uplink.set_down()
    cluster.env.schedule_callback(20 * US, uplink.set_up)
    assert primed(lambda thread, va: thread.rread(va, 64)) == expected(
        RETRIED, "read")
    request, = cluster.tracer.find_spans("request:")[-1:]
    assert request.args["retries"] == 1 and request.args["outcome"] == "ok"


def test_a_fragmented_write_records_each_fragment(primed):
    assert primed(lambda thread, va: thread.rwrite(va, b"z" * 4096)) == (
        expected(FRAGMENTED, "write"))


def test_a_read_larger_than_the_mtu_records_its_traversal_first(primed):
    assert primed(lambda thread, va: thread.rread(va, 4096)) == (
        expected(LARGE_READ, "read"))
