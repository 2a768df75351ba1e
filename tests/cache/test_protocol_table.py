"""The cache line protocol tables are the whole protocol: every row is
reached, and nothing outside them is.

``repro.cache.protocol.LINE_TABLE`` / ``DIR_TABLE`` are swapped for
recording mappings (test-side; nothing is counted in ``src/``), and the
existing deterministic tests of ``test_cache.py`` plus the scripted
two-CN walk below must between them look up every row.  The walk goes
where no other test does — each episode names the rows it is there for
and asserts what they do:

* a recall / downgrade meeting a FILLING placeholder: poisoned, the data
  is served once and not installed;
* ``owner_local``: a fill admitted while the requester itself owns the
  line is told to re-examine locally;
* a ``wend`` arriving before its ``wbegin`` completes (``_aborted``);
* fetch-on-write vs full-line install;
* a downgrade of a clean SHARED line.

Two rows are reached by handing the directory's own ``_notify`` a
message rather than by timing a race: ``(filling, downgrade)`` and
``(shared, downgrade)`` need the directory to believe a CN owns a line
the CN does not hold dirty, which takes a lost ``wbegin`` response
(the grant executed, the CN gave up) or a downgrade overtaking the
owner's own eviction notice.
"""

import inspect

import pytest

from repro.cache import protocol
from repro.cache.directory import CacheReq
from repro.cache.protocol import ABSENT, FILLING, MODIFIED, SHARED
from repro.clib.client import RemoteAccessError
from repro.transport.clib_transport import RequestFailed

from tests.cache import test_cache
from tests.cache.test_cache import (_PID, alloc_region, make_cached_cluster,
                                    run_app)
from tools import cache_protocol_doc as doc

#: Rows no test can reach, with the reason (none today).
UNREACHED: dict = {}


class Recording(dict):
    """A table that remembers which rows were looked up, and which
    lookups had no row."""

    def __init__(self, table):
        super().__init__(table)
        self.seen = set()
        self.missed = set()

    def __getitem__(self, key):
        self.seen.add(key)
        return super().__getitem__(key)

    def __missing__(self, key):
        self.missed.add(key)
        raise KeyError(key)


@pytest.fixture
def tables(monkeypatch):
    line = Recording(protocol.LINE_TABLE)
    directory = Recording(protocol.DIR_TABLE)
    monkeypatch.setattr(protocol, "LINE_TABLE", line)
    monkeypatch.setattr(protocol, "DIR_TABLE", directory)
    return line, directory


def threads_of(cluster, cn, count):
    process = cluster.cn(cn).process("mn0", pid=_PID)
    return [process.thread() for _ in range(count)]


def together(cluster, *generators):
    """Start the generators in order at one instant; run them all."""
    env = cluster.env
    cluster.run(until=env.all_of([env.process(g) for g in generators]))


def key_of(va):
    return ("mn0", _PID, va)


def expecting(error, generator):
    """Wrap an op that must fail with ``error``."""
    with pytest.raises(error):
        yield from generator


# -- the walk, write-back ---------------------------------------------------------


def walk_local_races(line, directory):
    """Local ops of one CN racing on one absent line."""
    cluster = make_cached_cluster(policy="back")
    writer, reader, second = threads_of(cluster, 0, 3)
    va = alloc_region(cluster, writer)
    cache, out = cluster.cn(0).cache, {}

    def read(thread, at, into):
        out[into] = yield from thread.rread(at, 64)

    # A write then a read: the read's placeholder is poisoned when the
    # granted write installs over it, and its fill — queued at the
    # directory behind the write transaction — is admitted only once the
    # requester itself owns the line: owner_local, re-examine, hit.
    together(cluster, writer.rwrite(va, b"w" * 64), read(reader, va, "raced"))
    assert out["raced"] == b"w" * 64
    assert {(FILLING, "back_granted"), (MODIFIED, "read")} <= line.seen
    assert ("self", "fill") in directory.seen
    assert (cache.fills, cache.write_fills, cache.hits) == (0, 1, 1)

    # Two writes at once: the second is granted a line the first made
    # MODIFIED meanwhile, and commits in place.
    line_va = va + cache.line_bytes
    together(cluster, writer.rwrite(line_va, b"1" * 64),
             second.rwrite(line_va + 64, b"2" * 64))
    assert (MODIFIED, "back_granted") in line.seen
    assert ("self", "wbegin+owner") in directory.seen
    assert (cache.write_fills, cache.write_hits) == (2, 1)

    # A read in flight makes a second read and a write wait it out.
    line_va += cache.line_bytes
    together(cluster, read(reader, line_va, "first"),
             read(second, line_va, "second"),
             writer.rwrite(line_va, b"3" * 64))
    assert {(FILLING, "read"), (FILLING, "write")} <= line.seen
    assert out["first"] == out["second"] == bytes(64)


def walk_install(line, directory):
    """Fetch-on-write vs full-line install: only a partial write has to
    read the line image from the MN first."""
    cluster = make_cached_cluster(policy="back")
    (thread,) = threads_of(cluster, 0, 1)
    va = alloc_region(cluster, thread)
    size = cluster.cn(0).cache.line_bytes
    board = cluster.mn
    before = board.requests_served
    run_app(cluster, thread.rwrite(va, b"p" * 64))
    assert board.requests_served - before == 1        # the fetch
    before = board.requests_served
    run_app(cluster, thread.rwrite(va + size, b"f" * size))
    assert board.requests_served - before == 0        # nothing to fetch
    assert (ABSENT, "back_granted") in line.seen
    assert cluster.cn(0).cache.write_fills == 2


def walk_stale_owner(line, directory):
    """The directory's owner already evicted the line (its drop notice
    still pending): the downgrade finds nothing and is acked as is."""
    cluster = make_cached_cluster(policy="back", capacity_lines=2)
    (t0,), (t1,) = threads_of(cluster, 0, 1), threads_of(cluster, 1, 1)
    va = alloc_region(cluster, t0)
    size = cluster.cn(0).cache.line_bytes
    out = {}

    def app():
        yield from t0.rwrite(va, b"o" * 64)
        yield from t0.rread(va + size, 8)
        yield from t0.rread(va + 2 * size, 8)        # evicts (flushes) va
        out["read"] = yield from t1.rread(va, 64)
        yield from t0.rread(va + 3 * size, 8)        # carries the notice

    run_app(cluster, app())
    assert out["read"] == b"o" * 64
    assert (ABSENT, "downgrade") in line.seen
    assert ("sharers", "drop") in directory.seen     # cn0 was demoted first
    assert cluster.cache_dir._lines[key_of(va)] == (None, frozenset({"cn1"}))


def walk_requester_owns(line, directory):
    """Directory ops whose requester is the line's owner."""
    cluster = make_cached_cluster(policy="back")
    (t0,), (t1,) = threads_of(cluster, 0, 1), threads_of(cluster, 1, 1)
    va = alloc_region(cluster, t0)
    size = cluster.cn(0).cache.line_bytes
    cache, out = cluster.cn(0).cache, {}

    def app():
        # A bypass read syncs its own node's dirty line; a second one
        # finds only a clean sharer.
        yield from t0.rwrite(va, b"s" * 64)
        out["own"] = yield from t0.rread(va, 2 * size)
        out["other"] = yield from t1.rread(va, 2 * size)
        # An atomic's guard recalls the requester's own dirty line.
        yield from t0.rwrite(va + 4 * size, (7).to_bytes(8, "little"))
        out["faa"] = yield from t0.rfaa(va + 4 * size, 1)

    run_app(cluster, app())
    assert out["own"][:64] == out["other"][:64] == b"s" * 64
    assert out["faa"] == 7
    assert {("self", "sync"), ("sharers", "sync"),
            ("self", "wbegin+self")} <= directory.seen
    assert {(MODIFIED, "downgrade"), (MODIFIED, "recall")} <= line.seen
    assert cache.writebacks == 2 and key_of(va + 4 * size) not in cache._lines


def walk_freeze_sharers(line, directory):
    """The controller's freeze over a region with only clean sharers."""
    cluster = make_cached_cluster(policy="back")
    (thread,) = threads_of(cluster, 0, 1)
    va = alloc_region(cluster, thread)
    directory_node = cluster.cache_dir

    def app():
        yield from thread.rread(va, 64)
        frozen = yield from directory_node.freeze_region(_PID, "mn0", va, 64)
        assert frozen == (key_of(va),) and key_of(va) in directory_node._locks
        directory_node.release_region(frozen)

    run_app(cluster, app())
    assert ("sharers", "freeze") in directory.seen
    assert (SHARED, "recall") in line.seen
    assert directory_node._lines == {} and directory_node._locks == {}


def walk_departure(line, directory):
    """A departing CN walks every key it had when it started."""
    cluster = make_cached_cluster(policy="back")
    (t0, reader), (t1,) = threads_of(cluster, 0, 2), threads_of(cluster, 1, 1)
    va = alloc_region(cluster, t0)
    size = cluster.cn(0).cache.line_bytes
    cache, out = cluster.cn(0).cache, {}

    def setup():
        yield from t0.rwrite(va, b"a" * 64)
        yield from t0.rwrite(va + size, b"b" * 64)
        yield from t0.rread(va + 2 * size, 64)

    def read(at):
        out["read"] = yield from reader.rread(at, 64)

    run_app(cluster, setup())
    # While the two dirty lines flush, cn1's write recalls the clean
    # third: gone by the time the walk gets to it.
    together(cluster, t1.rwrite(va + 2 * size, b"c" * 64), cache.shutdown())
    assert (ABSENT, "evict") in line.seen
    assert (cache.writebacks, cache.evictions) == (2, 2)

    # Departing with a fill in flight poisons the placeholder: the read
    # is served, nothing is installed.
    cluster = make_cached_cluster(policy="back")
    (reader,) = threads_of(cluster, 0, 1)
    va = alloc_region(cluster, reader)
    cache = cluster.cn(0).cache
    together(cluster, read(va), cache.shutdown())
    assert (FILLING, "evict") in line.seen
    assert out["read"] == bytes(64) and cache._lines == {}
    assert (cache.fills, cache.evictions) == (0, 0)


def walk_injected_invals(line, directory):
    """CACHE_INVALs meeting a placeholder, and a downgrade meeting a
    clean line (see the module docstring for why these are handed to
    ``_notify`` directly)."""
    cluster = make_cached_cluster(policy="back")
    (thread,) = threads_of(cluster, 0, 1)
    va = alloc_region(cluster, thread)
    size = cluster.cn(0).cache.line_bytes
    cache, notify, out = cluster.cn(0).cache, cluster.cache_dir._notify, {}

    def read(at, into):
        out[into] = yield from thread.rread(at, 64)

    run_app(cluster, read(va, "clean"))
    run_app(cluster, notify("cn0", "downgrade", (key_of(va),)))
    assert (SHARED, "downgrade") in line.seen
    assert cache._lines[key_of(va)].state == SHARED and cache.writebacks == 0

    for step, action in enumerate(("recall", "downgrade"), start=1):
        at = va + step * size
        together(cluster, read(at, action), notify("cn0", action,
                                                   (key_of(at),)))
        assert (FILLING, action) in line.seen
        # Poisoned: served once, not installed.
        assert out[action] == bytes(64) and key_of(at) not in cache._lines
    assert (cache.fills, cache.misses, cache.invalidations) == (1, 3, 3)


def walk_aborted_txn(line, directory):
    """A ``wend`` overtaking its ``wbegin`` (the CN gave up on a wbegin
    the directory had yet to finish): the wbegin releases on completion."""
    cluster = make_cached_cluster(policy="back")
    (thread,) = threads_of(cluster, 0, 1)
    va = alloc_region(cluster, thread)
    cache, directory_node = cluster.cn(0).cache, cluster.cache_dir
    out = {}

    def app():
        wend = yield from cache._dir_request(
            CacheReq("wend", _PID, "mn0", txn_id=99))
        out["aborted"] = dict(directory_node._aborted)
        yield from cache._dir_request(CacheReq(
            "wbegin", _PID, "mn0", keys=(key_of(va),), txn_id=99))
        out["released"] = wend.body.value["released"]

    run_app(cluster, app())
    assert out["aborted"] == {("cn0", 99): None} and not out["released"]
    assert directory_node._aborted == {}
    assert directory_node._txns == {} and directory_node._locks == {}


# -- the walk, write-through ------------------------------------------------------


def walk_through_races(line, directory):
    cluster = make_cached_cluster(policy="through", capacity_lines=2)
    (t0, reader), (t1,) = threads_of(cluster, 0, 2), threads_of(cluster, 1, 1)
    va = alloc_region(cluster, t0)
    size = cluster.cn(0).cache.line_bytes
    cache, out = cluster.cn(0).cache, {}

    def read(at):
        out["read"] = yield from reader.rread(at, 64)

    # The MN acks a write while a local fill for the line is in flight:
    # the fill's read raced the write, so it must not install.
    together(cluster, t0.rwrite(va, b"t" * 64), read(va))
    assert (FILLING, "through_acked") in line.seen
    assert out["read"] == b"t" * 64 and key_of(va) not in cache._lines

    def app():
        for index in (1, 2, 3):                       # 3 evicts 1
            yield from t0.rread(va + index * size, 8)
        # cn0's drop notice is still pending: the recall finds nothing,
        # and the notice later finds no entry.
        yield from t1.rwrite(va + size, b"u" * 64)
        yield from t0.rread(va + 4 * size, 8)

    run_app(cluster, app())
    assert (ABSENT, "recall") in line.seen
    assert ("neither", "drop") in directory.seen


def walk_through_discards(line, directory):
    """A write-through the MN did not ack may or may not have applied:
    whatever the CN holds of the line is discarded."""
    cluster = make_cached_cluster(policy="through")
    writer, reader = threads_of(cluster, 0, 2)
    va = alloc_region(cluster, writer)
    freed = alloc_region(cluster, writer)
    size = cluster.cn(0).cache.line_bytes
    cache = cluster.cn(0).cache
    run_app(cluster, writer.rfree(freed))
    # Rejected at once (the region is gone), with the CN's own fill for
    # the line still queued at the directory behind the write.
    together(cluster,
             expecting(RemoteAccessError, writer.rwrite(freed, b"z" * 64)),
             expecting(RemoteAccessError, reader.rread(freed, 64)))
    assert (FILLING, "discard") in line.seen
    # Never answered (the board is down): a cached copy goes, and an
    # absent line stays so.
    run_app(cluster, writer.rread(va, 64))
    cluster.mn.crash()
    together(cluster,
             expecting(RequestFailed, writer.rwrite(va, b"x" * 64)),
             expecting(RequestFailed, reader.rwrite(va + size, b"y" * 64)))
    assert {(SHARED, "discard"), (ABSENT, "discard")} <= line.seen
    assert cache._lines == {} and cache.write_throughs == 0


WALK = (walk_local_races, walk_install, walk_stale_owner,
        walk_requester_owns, walk_freeze_sharers, walk_departure,
        walk_injected_invals, walk_aborted_txn, walk_through_races,
        walk_through_discards)


@pytest.mark.parametrize("episode", WALK, ids=lambda f: f.__name__)
def test_walk_episode(tables, episode):
    line, directory = tables
    episode(line, directory)
    assert not line.missed and not directory.missed


def test_every_row_is_reached(tables):
    line, directory = tables
    for name, test in sorted(vars(test_cache).items()):
        if not name.startswith("test_") or "partitioned" in name:
            continue
        parameters = inspect.signature(test).parameters
        for free in ("rfree", "rfree_async") if parameters else (None,):
            test(*([free] if parameters else []))
    for episode in WALK:
        episode(line, directory)
    assert not line.missed and not directory.missed
    for table in (line, directory):
        unreached = set(table) - table.seen
        assert unreached == {row for row in UNREACHED if row in table}


def test_doc_renders_the_tables():
    """``docs/caching.md``'s Protocol block is the tables' rendering, and
    its prose explains every name a cell can hold."""
    assert doc.documented() == doc.render(), (
        "docs/caching.md drifted from repro.cache.protocol: run "
        "`python tools/cache_protocol_doc.py --write`")
    text = doc.DOC.read_text()
    for name in (*protocol.EDITS, *protocol.TARGETS, *protocol.HOLDERS,
                 *doc.STATES, *(event for _, event in protocol.LINE_TABLE),
                 *(op for _, op in protocol.DIR_TABLE)):
        assert f"`{name}`" in text or f"*{name}*" in text, name
