"""Every CLib data-op route settles the same way.

One table: route (direct sync/async, vector, batched frame, and the
cache's hit / miss / bypass / write-through / write-back commit) x
outcome (OK, MN rejection, retries exhausted behind a downed MN link).
Whatever the route, an op must leave nothing behind: no open write
window in the shadow oracle, no dependency-tracker slot, a typed failure
(raised by sync ops, carried in ``Completion.status`` by async ones),
and a clean verifier.
"""

from dataclasses import replace

import pytest

from repro.clib.client import RemoteAccessError
from repro.clib.handles import Completion
from repro.cluster import ClioCluster
from repro.params import KB, MB, CacheParams, ClioParams
from repro.transport.clib_transport import RequestFailed

LINE = 512
PAYLOAD = b"P" * 48
_PID = 9614


def sync(kind, op):
    """Run a blocking op; fold its result or raised failure into the
    Completion shape ``rpoll`` gives async ops."""
    try:
        value = yield from op
        return [Completion(kind=kind, ok=True, value=value)]
    except RemoteAccessError as exc:
        return [Completion(kind=kind, ok=False, status=exc.status.value,
                           error=exc)]
    except RequestFailed as exc:
        return [Completion(kind=kind, ok=False, status="request_failed",
                           error=exc)]


def direct_sync(thread, va):
    done = yield from sync("write", thread.rwrite(va, PAYLOAD))
    done += yield from sync("read", thread.rread(va, len(PAYLOAD)))
    return done


def direct_async(thread, va):
    handles = [(yield from thread.rwrite_async(va, PAYLOAD)),
               (yield from thread.rread_async(va, len(PAYLOAD)))]
    return (yield from thread.rpoll(handles))


def vector(thread, va):
    handles = yield from thread.rwritev_async(
        [(va, PAYLOAD), (va + 256, PAYLOAD)])
    handles += yield from thread.rreadv_async(
        [(va, len(PAYLOAD)), (va + 256, len(PAYLOAD))])
    return (yield from thread.rpoll(handles))


def batched(thread, va):
    batcher = thread.enable_batching()
    handles = []
    for offset in (0, 256):
        handles.append((yield from thread.rwrite_async(va + offset, PAYLOAD)))
    for offset in (0, 256):
        handles.append((yield from thread.rread_async(va + offset,
                                                      len(PAYLOAD))))
    done = yield from thread.rpoll(handles)
    assert batcher.subops_batched == 4 and batcher.frames_issued <= 3
    return done


def cache_hit(thread, va):
    cache = thread.process.node.cache
    yield from thread.rwrite(va, PAYLOAD)       # through: MN write; back: fill
    yield from thread.rread(va, len(PAYLOAD))   # through: miss installs it
    local = cache.hits + cache.write_hits
    done = yield from sync("read", thread.rread(va, len(PAYLOAD)))
    if cache.policy == "back":
        done += yield from sync("write", thread.rwrite(va, PAYLOAD))
    assert cache.hits + cache.write_hits == local + len(done)
    return done


def cache_miss(thread, va):
    return (yield from sync("read", thread.rread(va, len(PAYLOAD))))


def cache_bypass(thread, va):
    wide = PAYLOAD * (2 * LINE // len(PAYLOAD))      # spans > 1 line
    done = yield from sync("write", thread.rwrite(va + 8, wide))
    done += yield from sync("read", thread.rread(va + 8, len(wide)))
    return done


def cache_write(thread, va):
    """Through: the write-through path.  Back: the fetch-on-write commit."""
    done = yield from sync("write", thread.rwrite(va + 8, PAYLOAD))
    done += yield from sync("read", thread.rread(va + 8, len(PAYLOAD)))
    return done


def cache_async(thread, va):
    handles = [(yield from thread.rwrite_async(va + 8, PAYLOAD)),
               (yield from thread.rread_async(va + 8, len(PAYLOAD)))]
    return (yield from thread.rpoll(handles))


#: (id, cache policy or None, route, outcomes that can reach it) — a
#: local hit never touches the MN, so it can only succeed.
ROUTES = [
    ("direct-sync", None, direct_sync, "ok rejected exhausted"),
    ("direct-async", None, direct_async, "ok rejected exhausted"),
    ("vector", None, vector, "ok rejected exhausted"),
    ("batched-frame", None, batched, "ok rejected exhausted"),
    ("cache-hit", "through", cache_hit, "ok"),
    ("cache-owner-hit", "back", cache_hit, "ok"),
    ("cache-miss", "through", cache_miss, "rejected exhausted"),
    ("cache-bypass", "back", cache_bypass, "ok rejected exhausted"),
    ("write-through", "through", cache_write, "ok rejected exhausted"),
    ("write-back-commit", "back", cache_write, "ok rejected exhausted"),
    ("cached-async", "through", cache_async, "ok rejected exhausted"),
    ("cached-vector", "back", vector, "ok rejected exhausted"),
]

CASES = [pytest.param(policy, route, outcome, id=f"{name}-{outcome}")
         for name, policy, route, outcomes in ROUTES
         for outcome in outcomes.split()]

EXPECTED = {"ok": "ok", "rejected": "invalid_va",
            "exhausted": "request_failed"}


@pytest.mark.parametrize("policy,route,outcome", CASES)
def test_every_route_settles_alike(policy, route, outcome):
    params = ClioParams.prototype()
    if policy is not None:
        params = replace(params, cache=CacheParams(policy=policy,
                                                   line_bytes=LINE))
    cluster = ClioCluster(
        params=params, seed=3, mn_capacity=256 * MB,
        layers=("verification",) + (("caching",) if policy else ()))
    verifier = cluster.verifier
    thread = cluster.cn(0).process("mn0", pid=_PID).thread(
        ordering_granularity="byte")
    out = {}

    def app():
        va = yield from thread.ralloc(64 * KB)
        if outcome == "rejected":
            va += 64 * MB                       # far outside the region
        elif outcome == "exhausted":
            cluster.topology.set_node_up("mn0", False)
        out["done"] = yield from route(thread, va)

    cluster.run(until=cluster.env.process(app()))
    cluster.topology.set_node_up("mn0", True)
    cluster.run(until=cluster.env.now + 1_000_000)

    for completion in out["done"]:
        assert completion.status == EXPECTED[outcome], completion
        assert completion.ok == (outcome == "ok")
        if completion.ok and completion.kind == "read":
            assert completion.value[:len(PAYLOAD)] == PAYLOAD
        if not completion.ok:
            # Async failures wait in the Completion; unwrapping re-raises.
            with pytest.raises((RemoteAccessError, RequestFailed)):
                completion.result
    assert thread.tracker.inflight_count == 0
    leftovers = [cell.pending
                 for space in verifier.oracle._spaces.values()
                 for cell in space.values() if cell.pending]
    assert leftovers == []
    assert verifier.ok, verifier.report()
