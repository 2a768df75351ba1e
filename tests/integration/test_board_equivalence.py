"""Differential testing: CBoard and SimBoard must agree observably.

The SimBoard exists so CLib code developed against it behaves identically
on the real board (paper section 5).  This suite runs the same
application scripts against both and compares every observable result —
data, error statuses, atomic outcomes — ignoring timing.
"""

import pytest

from repro.clib.client import ComputeNode, RemoteAccessError
from repro.core.cboard import CBoard
from repro.core.simboard import SimBoard
from repro.net.switch import Topology
from repro.params import ClioParams
from repro.sim import Environment

MB = 1 << 20
PAGE = 4 * MB


def build(board_kind: str):
    """``(env, topology, thread)``: one CN thread on the given board."""
    env = Environment()
    params = ClioParams.prototype()
    topology = Topology(env, params.network)
    if board_kind == "cboard":
        board = CBoard(env, params, dram_capacity=512 * MB)
    else:
        board = SimBoard(env, params)
    board.attach(topology)
    node = ComputeNode(env, "cn0", topology, params)
    return env, topology, node.process("mn0").thread()


def run_on(board_kind: str, script):
    """Run ``script(thread)`` against the given board; return its log."""
    env, _topology, thread = build(board_kind)
    log = []

    def app():
        yield from script(thread, log)

    env.run(until=env.process(app()))
    return log


def assert_equivalent(script):
    assert run_on("cboard", script) == run_on("simboard", script)


def test_write_read_script_equivalent():
    def script(thread, log):
        va = yield from thread.ralloc(1 * MB)
        yield from thread.rwrite(va, b"differential")
        log.append((yield from thread.rread(va, 12)))
        yield from thread.rwrite(va + 100, b"x" * 300)
        log.append((yield from thread.rread(va + 100, 300)))
        log.append((yield from thread.rread(va + 50, 60)))

    assert_equivalent(script)


def test_large_transfer_script_equivalent():
    blob = bytes(range(256)) * 24   # > 4 MTUs

    def script(thread, log):
        va = yield from thread.ralloc(16 * 1024)
        yield from thread.rwrite(va, blob)
        log.append((yield from thread.rread(va, len(blob))))

    assert_equivalent(script)


def test_fragmented_read_response_headers_equivalent():
    """A 4 KB read comes back as three fragments, each stamped with the
    size of the whole response (``ClioHeader.total_size``)."""

    def response_geometry(board_kind):
        env, topology, thread = build(board_kind)
        downlink = topology._downlinks["cn0"]
        real = downlink.deliver
        seen = []

        def capture(packet):
            header = packet.header
            seen.append((header.fragment, header.fragments, header.size,
                         header.total_size))
            real(packet)

        def app():
            va = yield from thread.ralloc(PAGE)
            yield from thread.rwrite(va, bytes(range(256)) * 16)
            downlink.deliver = capture
            yield from thread.rread(va, 4096)

        env.run(until=env.process(app()))
        return sorted(seen)

    geometry = response_geometry("cboard")
    assert geometry == [(0, 3, 1500, 4096), (1, 3, 1500, 4096),
                        (2, 3, 1096, 4096)]
    assert response_geometry("simboard") == geometry


def test_error_script_equivalent():
    def script(thread, log):
        va = yield from thread.ralloc(64)
        yield from thread.rfree(va)
        try:
            yield from thread.rread(va, 8)
            log.append("read-succeeded")
        except RemoteAccessError as exc:
            log.append(("error", exc.status.value))
        try:
            yield from thread.rread(123 * PAGE, 8)
            log.append("wild-read-succeeded")
        except RemoteAccessError as exc:
            log.append(("error", exc.status.value))

    assert_equivalent(script)


def test_atomic_script_equivalent():
    def script(thread, log):
        va = yield from thread.ralloc(16)
        log.append((yield from thread.rfaa(va, 5)))
        log.append((yield from thread.rfaa(va, 3)))
        log.append((yield from thread.rcas(va, 8, 100)))
        log.append((yield from thread.rcas(va, 8, 200)))
        attempts = yield from thread.rlock(va + 8)
        log.append(("locked", attempts))
        yield from thread.runlock(va + 8)
        attempts = yield from thread.rlock(va + 8)
        log.append(("relocked", attempts))

    assert_equivalent(script)


def test_async_ordering_script_equivalent():
    def script(thread, log):
        va = yield from thread.ralloc(PAGE)
        h1 = yield from thread.rwrite_async(va, b"first___")
        h2 = yield from thread.rwrite_async(va, b"second__")
        yield from thread.rpoll([h1, h2])
        log.append((yield from thread.rread(va, 8)))
        yield from thread.rfence()
        log.append("fenced")

    assert_equivalent(script)


def test_isolation_script_equivalent():
    def run(board_kind):
        env = Environment()
        params = ClioParams.prototype()
        topology = Topology(env, params.network)
        board = (CBoard(env, params, dram_capacity=512 * MB)
                 if board_kind == "cboard" else SimBoard(env, params))
        board.attach(topology)
        node = ComputeNode(env, "cn0", topology, params)
        thread_a = node.process("mn0").thread()
        thread_b = node.process("mn0").thread()
        log = []

        def app():
            va = yield from thread_a.ralloc(64)
            yield from thread_a.rwrite(va, b"private")
            try:
                yield from thread_b.rread(va, 7)
                log.append("leak")
            except RemoteAccessError as exc:
                log.append(("isolated", exc.status.value))

        env.run(until=env.process(app()))
        return log

    assert run("cboard") == run("simboard")
