"""The host cost of one op, per layer, as exact counts.

Host time is spent in Python calls and generator resumes, not in heap
entries (docs/performance.md, *Tried, measured, rejected*), and unlike a
wall-clock rate a call count repeats to the last digit.  So each primed
op below is run ``OPS`` times under ``sys.setprofile`` and every call is
charged to a ``repro/<package>/``: a call into ``repro`` code to the
package its file lives in (a generator resume is a call), a call into
anything else -- builtins and the stdlib -- to the ``repro`` package that
made it.  Calls the stdlib makes on its own are not counted.

Two costs on the same path are not calls, so the same run counts them
too.  ``CONSTRUCTED`` is the records built per op, by class, from the
hook's ``__init__`` call events: how a record is built is invisible to a
call count, and a frozen dataclass or a keyword call to a class costs
several times a positional one.  ``ENUM_LOADS`` is the enum members
loaded per op from ``repro`` frames, counted by a temporary
``EnumType.__getattribute__``: on CPython 3.11 ``EnumType`` defines
``__getattr__``, so every ``Enum.X`` load takes the slow attribute hook
(~100 ns against ~9 ns for a module global) and no frame.

Each table is a ceiling pinned exactly, like ``SRC_CEILING``: a change
that adds calls, records or loads raises its row in the same diff and
says why, and one that removes them lowers the row so the ground is kept.
The counts belong to one interpreter, so they are checked on CPython 3.11
only.
"""

import enum
import functools
import gc
import sys
from collections import Counter
from dataclasses import is_dataclass

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
#: The board serves a one-page READ or WRITE as bare callbacks, from the
#: port to ``Board._respond``, with no handler generator: rread64 core
#: 31.32 -> 27.32 and sim 91.68 -> 71.68, rwrite64 core 41.32 -> 32.32
#: and sim 90.68 -> 70.68.  ``FastPath.execute`` wraps that lane in a gate,
#: so its one-page callers pay the lane's two callbacks and no longer the
#: DRAM ``Timeout``: onboard_read64 core 20.04 -> 21.04 (one call more)
#: and sim 23.24 -> 17.3.  The MAT lookup hashes no enum member: rwrite4k
#: core 107.84 -> 105.84 and sim 181.92 -> 164.92.
#: ``Environment.now`` is a slot, not a property, ``schedule_callback``
#: pushes its own heap entry instead of calling ``_schedule``, a link
#: binds its jitter constants once, and a packet whose body fits the MTU
#: is built without ``fragment_payload``: rread64 sim 71.68 -> 50.68,
#: net 37.24 -> 30.24, core 27.32 -> 26.32 and transport 37.76 -> 36.76;
#: every other row of sim, net and transport fell too.
#: Write fragments and retries run as callbacks from the port too, counted
#: down in ``Board._count_down``, with no handler generator and no gate:
#: rwrite4k core 105.84 -> 91.84 and sim 122.92 -> 83.92.
#: A DRAM write that fits one 4 KB piece takes one slice, as a read does
#: (one ``len``, no ``min``, no second ``len``): rwrite64 core 32.32 ->
#: 29.32 and rwrite4k core 91.84 -> 82.84 (three fragment writes).
#: ``Transport.request`` tests a slow type by identity in a tuple, not by
#: ``Enum.__hash__`` in a set: ralloc_rfree transport 72.0 -> 70.0.
#: ``rread64_traced`` is rread64 with span tracing on.  Its hooks were a
#: ``begin`` and two ``record`` calls, three site lookups that hashed
#: enum members, and a Python loop over the staged rows at each flush:
#: telemetry 12.28 -> 3.28 and core 29.32 -> 27.32.  What is left is one
#: fixed-signature ``open`` (its row's packing is a C call), and for the
#: board's row and the settled row a C ``struct`` pack and a ``list``
#: append each; a flush every 64 rows joins the packed rows in C.
BUDGET = {
    "rread64": {"alloc": 0.32, "clib": 5.0, "core": 26.32, "net": 30.24,
                "sim": 50.68, "transport": 36.76},
    "rwrite64": {"alloc": 0.32, "clib": 7.0, "core": 29.32, "net": 30.24,
                 "sim": 50.68, "transport": 37.76},
    "onboard_read64": {"alloc": 0.04, "core": 21.04, "sim": 13.3},
    "rwrite4k": {"alloc": 0.84, "clib": 7.0, "core": 82.84, "net": 67.42,
                 "sim": 83.92, "transport": 46.88},
    "ralloc_rfree": {"alloc": 6.4, "clib": 9.0, "core": 130.4,
                     "net": 60.38, "sim": 222.4, "transport": 70.0},
    "rread64_traced": {"alloc": 0.32, "clib": 5.0, "core": 27.32,
                       "net": 30.2, "sim": 50.68, "telemetry": 3.28,
                       "transport": 37.76},
}

#: ``{op: {class: instances per op}}``: every object whose Python
#: ``__init__`` ran, charged to its class once (a ``super().__init__``
#: chain is one instance).  Timeouts are recycled, so none appear.  None
#: of these classes is a frozen dataclass, and the per-packet ones are
#: built positionally: a frozen, keyword-built ``ClioHeader`` cost ~2 µs.
#: No READ or WRITE builds a handler (``_Spawned``) or a fast-path gate
#: (``Event``) on the board; a one-packet write builds no fragment
#: countdown (``_WriteProgress`` and its ``Breakdown``) either.
CONSTRUCTED = {
    "rread64": {"Breakdown": 1.0, "ClioHeader": 2.0, "Event": 1.0,
                "FastPathResult": 1.0, "Packet": 2.0, "RequestOutcome": 1.0,
                "ResponseBody": 1.0, "_Pending": 1.0},
    "rwrite64": {"Breakdown": 1.0, "ClioHeader": 2.0, "Event": 1.0,
                 "FastPathResult": 1.0, "Packet": 2.0,
                 "RequestOutcome": 1.0, "ResponseBody": 1.0,
                 "_Pending": 1.0},
    "onboard_read64": {"Breakdown": 1.0, "Event": 1.0,
                       "FastPathResult": 1.0},
    "rwrite4k": {"Breakdown": 4.0, "ClioHeader": 4.0, "Event": 1.0,
                 "FastPathResult": 3.0, "Packet": 4.0,
                 "RequestOutcome": 1.0, "ResponseBody": 1.0,
                 "_Pending": 1.0, "_WriteProgress": 1.0},
    "ralloc_rfree": {"AllocResponse": 1.0, "Allocation": 1.0,
                     "AllocationOutcome": 1.0, "ClioHeader": 4.0,
                     "Event": 2.0, "FreeResponse": 1.0, "Packet": 4.0,
                     "PageTableEntry": 1.0, "Request": 2.0,
                     "RequestOutcome": 2.0, "ResponseBody": 2.0,
                     "_Bucket": 1.0, "_Pending": 2.0, "_ProcessSpace": 2.0,
                     "_Spawned": 2.0},
    "rread64_traced": {"Breakdown": 1.0, "ClioHeader": 2.0, "Event": 1.0,
                       "FastPathResult": 1.0, "Packet": 2.0,
                       "RequestOutcome": 1.0, "ResponseBody": 1.0,
                       "_Pending": 1.0},
}

#: ``{op: enum member loads per op}`` made from ``repro`` frames.  Every
#: member these paths test is a module constant bound at import (23, 26,
#: 6, 58 and 35 loads per op before).
ENUM_LOADS = {"rread64": 0.0, "rwrite64": 0.0, "onboard_read64": 0.0,
              "rwrite4k": 0.0, "ralloc_rfree": 0.0, "rread64_traced": 0.0}

#: ``Enum.__hash__``, a Python function: a dict keyed by enum members runs
#: it (and ``hash``) on every lookup.
ENUM_HASH = enum.Enum.__hash__.__code__

#: ``{op: Enum.__hash__ calls per op}``: none on any of them.  The slow
#: path's type test hashed one per ``ralloc`` and one per ``rfree``, and a
#: traced echo's three site lookups three (keyed by ``PacketType`` and
#: ``Status`` members; by their values now).
ENUM_HASHES = {"rread64": 0.0, "rwrite64": 0.0, "onboard_read64": 0.0,
               "rwrite4k": 0.0, "ralloc_rfree": 0.0, "rread64_traced": 0.0}


def _package(frame):
    """``repro`` package of the code running in ``frame``, or None."""
    filename = frame.f_code.co_filename
    index = filename.rfind("/repro/")
    if index < 0:
        return None
    return filename[index + len("/repro/"):].split("/")[0].removesuffix(".py")


def measure() -> tuple[dict, dict, dict, dict]:
    """``(calls, constructed, enum_loads, enum_hashes)`` over ``OPS``
    primed ops each: ``{op: Counter(package -> calls)}``, ``{op:
    Counter(class -> instances)}``, ``Counter(op -> enum member loads)``
    and ``Counter(op -> Enum.__hash__ calls)``."""
    cluster = ClioCluster(params=ClioParams.prototype(), mn_capacity=512 * MB)
    env, board = cluster.env, cluster.mn
    thread = cluster.cn(0).process("mn0").thread()
    pid = thread.process.pid
    counts: dict = {}
    constructed: dict = {}
    enum_loads, enum_hashes = Counter(), Counter()
    measuring = None

    def count_load(cls, name):
        """``EnumType.__getattribute__`` while an op is measured."""
        value = type.__getattribute__(cls, name)
        if type(value) is cls and _package(sys._getframe(1)) is not None:
            enum_loads[measuring] += 1
        return value

    def hook(frame, event, _arg):
        if event == "call":
            code = frame.f_code
            if code is count_load.__code__:
                return
            if code is ENUM_HASH:
                enum_hashes[measuring] += 1
            if code.co_name == "__init__":
                cls = type(frame.f_locals[code.co_varnames[0]])
                if getattr(cls.__init__, "__code__", None) is code:
                    built[cls] += 1
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
        nonlocal calls, built, measuring
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

        # The traced echo runs last: tracing is passive, but once on it
        # stays on.
        ops["rread64_traced"] = ops["rread64"]
        for name, op in ops.items():
            if name == "rread64_traced":
                cluster.enable_tracing()
            for _ in range(2):              # prime PTEs, TLB and caches
                yield from op()
            yield env.timeout(100 * US)     # let stale TIMEOUTs pop
            calls = counts[name] = Counter()
            built = constructed[name] = Counter()
            measuring = name
            enum.EnumType.__getattribute__ = count_load
            sys.setprofile(hook)
            try:
                for _ in range(OPS):
                    yield from op()
            finally:
                sys.setprofile(None)
                del enum.EnumType.__getattribute__

    calls, built = Counter(), Counter()
    # A Timeout is recycled only when nothing else holds it, and a cycle
    # the collector has not reached yet may: collect when the test starts,
    # not whenever earlier tests left the collector's counters.
    gc.collect()
    gc.disable()
    try:
        env.run(until=env.process(app()))
    finally:
        gc.enable()
    return counts, constructed, enum_loads, enum_hashes


@functools.cache
def _measured() -> tuple[dict, dict, dict, list, Counter]:
    """One run's three tables, per op and rounded like the pinned ones,
    the names of the frozen dataclasses among the records built, and the
    ``Enum.__hash__`` calls per op."""
    counts, constructed, enum_loads, enum_hashes = measure()

    def per_op(count):
        return round(count / OPS, 2)

    calls = {op: {package: per_op(count)
                  for package, count in sorted(counter.items())}
             for op, counter in counts.items()}
    built = {op: {cls.__name__: per_op(count) for cls, count in
                  sorted(counter.items(), key=lambda item: item[0].__name__)}
             for op, counter in constructed.items()}
    loads = {op: per_op(enum_loads[op]) for op in counts}
    frozen = sorted({cls.__name__ for counter in constructed.values()
                     for cls in counter
                     if is_dataclass(cls) and cls.__dataclass_params__.frozen})
    return calls, built, loads, frozen, enum_hashes


@pytest.fixture
def measured():
    if sys.implementation.name != "cpython" or sys.version_info[:2] != (3, 11):
        pytest.skip("counts are pinned for CPython 3.11")
    return _measured()


def _show(title: str, table: dict) -> None:
    print(f"\n{title} per op:")
    for op, row in table.items():
        print(f"  {op:15} {row}")


def test_pipeline_op_call_budget(measured):
    calls = measured[0]
    _show("Python calls", calls)
    assert calls == BUDGET, (
        f"calls per op moved: {calls}. Over a ceiling: remove the "
        "calls, or raise the row in this diff and say why; under it: "
        "lower the row")


def test_records_constructed_per_op(measured):
    built = measured[1]
    _show("records constructed", built)
    assert built == CONSTRUCTED, (
        f"records built per op moved: {built}. Raise a row with the "
        "reason for the new record, or lower it")
    assert measured[3] == [], (
        f"frozen dataclasses built on the op path: {measured[3]}; a frozen "
        "__init__ sets each field through object.__setattr__")


def test_enum_member_loads_per_op(measured):
    loads = measured[2]
    _show("enum member loads", loads)
    assert loads == ENUM_LOADS, (
        f"enum member loads per op moved: {loads}. A hot-path load binds "
        "the member to a module constant instead")


def test_the_echo_hashes_no_enum_member(measured):
    """The board tests a READ's or WRITE's type by identity, and looks
    any other type up in the MAT by member name: no ``__hash__`` runs on
    an echo, traced or not, on a fragmented write's packets or on an
    alloc and free.  ``PacketType`` keeps ``Enum``'s hash, so sets of
    members iterate in the same order from run to run."""
    hashes = {op: round(measured[4][op] / OPS, 2) for op in ENUM_HASHES}
    assert hashes == ENUM_HASHES
