"""The event budget of one op, as an exact count (no wall clock).

Every heap entry a 64 B echo schedules is listed here with the reason it
must stay an entry of its own: something else in the model can land
between it and its neighbours, so removing it would reorder pops.  An
entry that decides nothing (an ``Initialize``, an unobserved completion
event) is not on the list, and a change that adds one fails this test.
Entries order the simulation; what an op costs the host is mostly Python
calls, which ``test_call_budget.py`` pins (docs/performance.md).
"""

from repro.cluster import ClioCluster
from repro.params import ClioParams

MB = 1 << 20
US = 1_000

SEND = ("Transport._transact.<locals>.send",
        "CLib's request overhead before the packet leaves; other threads' "
        "sends interleave with it")
LINK = ("link delivery",
        "serialization + propagation + jitter behind whatever the link "
        "already queued")
FORWARD = ("Switch._forward",
           "ToR forwarding latency; folded into the uplink delivery it "
           "permutes same-nanosecond arrivals of different clients")
INGEST = ("FastPath._lane",
          "pipeline ingest + fixed stages: the II=1 slot later packets "
          "queue behind; the TLB lookup and the DMA claim read board state "
          "when it pops, and a hit schedules the DRAM entry")
DRAM = ("FastPath._access_dram",
        "DRAM access on the serialized DMA engine; a crash between the two "
        "discards the response")
DONE = ("Transport._ack",
        "the ack lane, in state.done's slot: response, NACK, corruption "
        "and TIMEOUT race to settle the attempt once, and the waiter must "
        "run after entries already queued at this nanosecond; it frees the "
        "window slot and hands the waiter to the completion overhead")
TAIL = ("Timeout -> Transport._transact",
        "CLib's completion overhead; the window slot is already free, so "
        "woken senders run inside it")
EXPIRE = ("_Pending.expire",
          "the TIMEOUT armed at send, stale by now: a no-op entry is "
          "cheaper than a cancellable timer")

ECHO = [SEND, LINK, FORWARD, LINK, INGEST, DRAM, LINK, FORWARD, LINK,
        DONE, TAIL, EXPIRE]


def waiter(event) -> str:
    """Innermost generator waiting on ``event``, by qualified name."""
    for resume in event.callbacks:
        # Process._resume, or the _resume of an Environment.spawn handler.
        generator = getattr(getattr(resume, "__self__", None),
                            "_generator", None)
        if generator is not None:
            while generator.gi_yieldfrom is not None:
                generator = generator.gi_yieldfrom
            return generator.gi_code.co_qualname
    return "nobody"


def entries_per_op():
    """Kinds of the heap entries each primed op schedules, in pop order."""
    cluster = ClioCluster(params=ClioParams.prototype(),
                          mn_capacity=512 * MB)
    env = cluster.env
    thread = cluster.cn(0).process("mn0").thread()
    deliveries = [link.deliver for link in cluster.topology.all_links()]
    windows = {}

    def app():
        va = yield from thread.ralloc(4 * MB)
        yield from thread.rwrite(va, b"x" * 64)     # prime PTE + TLB
        yield from thread.rread(va, 64)
        for name, op in (("rread", lambda: thread.rread(va, 64)),
                         ("rwrite", lambda: thread.rwrite(va, b"y" * 64))):
            yield env.timeout(100 * US)    # let stale TIMEOUTs pop
            first = env._seq
            yield from op()
            windows[name] = range(first, env._seq)
        yield env.timeout(100 * US)

    def kind(event, fn) -> str:
        if event is not None:
            return f"{type(event).__name__} -> {waiter(event)}"
        target = getattr(fn, "func", fn)   # unwrap functools.partial
        if target in deliveries:
            return "link delivery"
        return target.__qualname__

    done = env.process(app())
    popped = []
    while not done.processed:
        _when, _priority, seq, event, fn = env._queue[0]
        popped.append((seq, kind(event, fn)))
        env.step()
    # The board's PA-buffer refill poll ticks on its own clock.
    return {name: [kind for seq, kind in popped if seq in window
                   and not kind.endswith("refill_process")]
            for name, window in windows.items()}


def test_one_echo_schedules_exactly_these_twelve_entries():
    kinds = entries_per_op()
    assert kinds["rread"] == [kind for kind, _why in ECHO]
    # A 64 B write is the same round trip: payload out, bare ack back.
    assert kinds["rwrite"] == [kind for kind, _why in ECHO]
    assert len(ECHO) == 12
