"""The Python-call budget of one op, per layer, as exact counts.

Host time is spent in Python calls and generator resumes, not in heap
entries (docs/performance.md, *Tried, measured, rejected*), and unlike a
wall-clock rate a call count repeats to the last digit.  So each primed
op below is run ``OPS`` times under ``sys.setprofile`` and every call is
charged to a ``repro/<package>/``: a call into ``repro`` code to the
package its file lives in (a generator resume is a call), a call into
anything else -- builtins and the stdlib -- to the ``repro`` package that
made it.  Calls the stdlib makes on its own are not counted.

``BUDGET`` is a ceiling pinned exactly, like ``SRC_CEILING``: a change
that adds calls raises its row in the same diff and says why, and one
that removes calls lowers the row so the ground is kept.  The counts
belong to one interpreter, so they are checked on CPython 3.11 only.
"""

import gc
import sys
from collections import Counter

import pytest

from repro.cluster import ClioCluster
from repro.core.addr import AccessType
from repro.params import ClioParams

MB = 1 << 20
US = 1_000
OPS = 50

#: ``{op: {package: calls per op}}``, recorded on CPython 3.11.  The
#: fractions are the board's PA-buffer refill poll, which ticks on its own
#: clock.  A direct data op is one CLib frame over ``_transact`` and its
#: caller resumes once per attempt (the transport's ack lane); a fast-path
#: TIMEOUT is cached per size, so ``params`` costs nothing per op.
BUDGET = {
    "rread64": {"alloc": 0.32, "clib": 5.0, "core": 31.64, "net": 37.24,
                "sim": 91.68, "transport": 37.76},
    "rwrite64": {"alloc": 0.32, "clib": 7.0, "core": 42.64, "net": 37.24,
                 "sim": 90.68, "transport": 38.76},
    "onboard_read64": {"alloc": 0.04, "core": 20.08, "sim": 23.24},
    "rwrite4k": {"alloc": 0.84, "clib": 7.0, "core": 111.68, "net": 75.42,
                 "sim": 181.92, "transport": 46.88},
    "ralloc_rfree": {"alloc": 6.4, "clib": 9.0, "core": 143.8,
                     "net": 68.38, "sim": 258.4, "transport": 74.0},
}


def _package(frame):
    """``repro`` package of the code running in ``frame``, or None."""
    filename = frame.f_code.co_filename
    index = filename.rfind("/repro/")
    if index < 0:
        return None
    return filename[index + len("/repro/"):].split("/")[0].removesuffix(".py")


def measure() -> dict:
    """``{op: Counter(package -> calls)}`` over ``OPS`` primed ops each."""
    cluster = ClioCluster(params=ClioParams.prototype(), mn_capacity=512 * MB)
    env, board = cluster.env, cluster.mn
    thread = cluster.cn(0).process("mn0").thread()
    pid = thread.process.pid
    counts: dict = {}

    def hook(frame, event, _arg):
        if event == "call":
            package = _package(frame)
            if package is None:
                package = _package(frame.f_back)
        elif event == "c_call":
            package = _package(frame)
        else:
            return
        if package is not None:
            calls[package] += 1

    def app():
        nonlocal calls
        va = yield from thread.ralloc(4 * MB)
        ops = {
            "rread64": lambda: thread.rread(va, 64),
            "rwrite64": lambda: thread.rwrite(va, b"w" * 64),
            "onboard_read64": lambda: board.execute_local(
                pid, AccessType.READ, va, 64),
            "rwrite4k": lambda: thread.rwrite(va, b"k" * 4096),
            "ralloc_rfree": lambda: alloc_free(),
        }

        def alloc_free():
            freed = yield from thread.ralloc(4 * MB)
            yield from thread.rfree(freed)

        for name, op in ops.items():
            for _ in range(2):              # prime PTEs, TLB and caches
                yield from op()
            yield env.timeout(100 * US)     # let stale TIMEOUTs pop
            calls = counts[name] = Counter()
            sys.setprofile(hook)
            try:
                for _ in range(OPS):
                    yield from op()
            finally:
                sys.setprofile(None)

    calls = Counter()
    # A Timeout is recycled only when nothing else holds it, and a cycle
    # the collector has not reached yet may: collect when the test starts,
    # not whenever earlier tests left the collector's counters.
    gc.collect()
    gc.disable()
    try:
        env.run(until=env.process(app()))
    finally:
        gc.enable()
    return counts


def test_pipeline_op_call_budget():
    if sys.implementation.name != "cpython" or sys.version_info[:2] != (3, 11):
        pytest.skip("call counts are pinned for CPython 3.11")
    measured = {op: {package: round(count / OPS, 2)
                     for package, count in sorted(counter.items())}
                for op, counter in measure().items()}
    assert measured == BUDGET, (
        f"calls per op moved: {measured}. Over a ceiling: remove the "
        "calls, or raise the row in this diff and say why; under it: "
        "lower the row")
