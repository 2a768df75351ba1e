"""Differential testing: CBoard and SimBoard must agree observably.

The SimBoard exists so CLib code developed against it behaves identically
on the real board (paper section 5).  This suite runs the same
application scripts against both and compares every observable result —
data, error statuses, atomic outcomes — ignoring timing.  A stateful
machine then drives both boards with the same raw request packets and
compares every response packet, header field by field.
"""

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, precondition, rule

from repro.clib.client import ComputeNode, RemoteAccessError
from repro.core.addr import Permission
from repro.core.cboard import CBoard
from repro.core.extend import OffloadResult
from repro.core.pipeline import Status
from repro.core.simboard import SimBoard
from repro.core.slowpath import AllocResponse, FreeResponse
from repro.core.sync import AtomicOp
from repro.net.packet import (BatchSubOp, ClioHeader, Packet, PacketType,
                              fragment_payload)
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


# -- the wire duties the boards once implemented twice -------------------------


def test_atomic_on_read_only_allocation_is_refused():
    """An atomic writes its word, so it needs WRITE permission."""

    def script(thread, log):
        va = yield from thread.ralloc(64, permission=Permission.READ)
        try:
            log.append((yield from thread.rfaa(va, 5)))
        except RemoteAccessError as exc:
            log.append(("error", exc.status.value))
        log.append((yield from thread.rread(va, 8)))

    assert_equivalent(script)


def test_write_fails_when_any_fragment_fails():
    """A 3000 B write whose first fragment lands in a read-only page."""

    def script(thread, log):
        read_only = yield from thread.ralloc(PAGE, permission=Permission.READ)
        writable = yield from thread.ralloc(PAGE)
        log.append(writable - read_only)
        try:
            yield from thread.rwrite(writable - 1500, b"\x07" * 3000)
            log.append("written")
        except RemoteAccessError as exc:
            log.append(("error", exc.status.value))
        log.append((yield from thread.rread(writable, 1500)))

    assert_equivalent(script)


def test_batched_frames_are_served():
    def script(thread, log):
        va = yield from thread.ralloc(PAGE)
        thread.enable_batching()
        write = yield from thread.rwrite_async(va, b"batched!")
        read = yield from thread.rread_async(va + 4, 8)
        for done in (yield from thread.rpoll([write, read])):
            log.append((done.kind, done.status, done.value))

    assert_equivalent(script)


class RawWire:
    """One board on a stub topology: the test hands request packets to the
    board's port and gets back every packet the board sends."""

    SLICE_NS = 10_000
    #: A request still unanswered this long after it arrived never will be.
    HORIZON_NS = 2_000_000

    def __init__(self, board_kind: str):
        self.env = Environment()
        self.params = ClioParams.prototype()
        self.board = (CBoard(self.env, self.params, dram_capacity=512 * MB)
                      if board_kind == "cboard"
                      else SimBoard(self.env, self.params))
        self.sent = []
        self.board.attach(self)

    def add_node(self, name, receive, **_link):
        self.port = receive

    def send(self, packet):
        self.sent.append(packet)

    def issue(self, packets):
        """Deliver one request's packets; return its response packets."""
        start = len(self.sent)
        for packet in packets:
            self.port(packet)
        deadline = self.env.now + self.HORIZON_NS
        while self.env.now < deadline:
            self.env.run(until=self.env.now + self.SLICE_NS)
            answer = self.sent[start:]
            if answer and len(answer) == answer[0].header.fragments:
                break
        return self.sent[start:]


def request_packets(params, request_id, kind, va=0, size=0, payload=None,
                    retry_of=None):
    """One request of process 1 as CLib's transport puts it on the wire: a
    write as MTU fragments, a batch as one frame, anything else as one
    packet."""
    pid = 1
    net = params.network
    if kind is PacketType.WRITE:
        pieces = fragment_payload(size, net.mtu)
        return [Packet(ClioHeader("cn0", "mn0", request_id, kind, pid,
                                  va + offset, chunk, size, index,
                                  len(pieces), retry_of),
                       payload[offset:offset + chunk],
                       net.header_bytes + chunk)
                for index, (offset, chunk) in enumerate(pieces)]
    wire = net.header_bytes
    if kind is PacketType.BATCH:
        wire += sum(net.subop_header_bytes
                    + (sub.size if sub.op is PacketType.WRITE else 0)
                    for sub in payload)
        va, size = payload[0].va, len(payload)
    return [Packet(ClioHeader("cn0", "mn0", request_id, kind, pid, va, size,
                              size, 0, 1, retry_of), payload, wire)]


def test_retried_alloc_and_free_replay():
    """A retry of an alloc or free that already ran gets the original's
    answer: no second allocation, no "unknown va"."""
    grant = (PAGE, Permission.READ_WRITE, None)

    def answers(board_kind):
        wire = RawWire(board_kind)
        params = wire.params
        out = wire.issue(request_packets(params, 1, PacketType.ALLOC,
                                         payload=grant))
        va = out[0].payload.value.va
        out += wire.issue(request_packets(params, 2, PacketType.ALLOC,
                                          payload=grant, retry_of=1))
        out += wire.issue(request_packets(params, 3, PacketType.FREE, va=va))
        out += wire.issue(request_packets(params, 4, PacketType.FREE, va=va,
                                          retry_of=3))
        return [(packet.header.request_id, packet.payload.status,
                 packet.payload.value.va - va
                 if isinstance(packet.payload.value, AllocResponse)
                 else packet.payload.value.ok)
                for packet in out]

    ok = Status.OK
    assert answers("cboard") == [(1, ok, 0), (2, ok, 0), (3, ok, True),
                                 (4, ok, True)]
    assert answers("simboard") == answers("cboard")


# -- stateful differential machine ----------------------------------------------

#: Page-aligned and far above anything either board allocates.
WILD = 1 << 40
PERMISSIONS = (Permission.READ, Permission.WRITE, Permission.READ_WRITE)


def observe(packet, alloc_base=None):
    """What a response packet says, minus timing and ``breakdown``.

    An alloc's VA is kept only relative to ``alloc_base``, the VA its
    original got on the same board (None for a first attempt)."""
    header, body = packet.header, packet.payload
    value = body.value
    if isinstance(value, AllocResponse):
        value = ("alloc", value.ok, value.size,
                 None if alloc_base is None else value.va - alloc_base)
    elif isinstance(value, FreeResponse):
        value = ("free", value.ok, value.freed_pages)
    elif isinstance(value, OffloadResult):
        value = ("offload", value.ok)
    return (header.packet_type, header.request_id, header.fragment,
            header.fragments, header.size, header.total_size, body.status,
            body.data, value, body.atomic)


def pattern(seed: int, size: int) -> bytes:
    return bytes((seed + index) % 251 for index in range(size))


def conflict(one, other) -> bool:
    """Two ``(op, (allocation, offset), size, data)`` sub-ops overlap and
    at least one of them writes."""
    (op, (allocation, offset), size, _), (
        other_op, (other_allocation, other_offset), other_size, _) = one, other
    return (allocation == other_allocation
            and PacketType.WRITE in (op, other_op)
            and offset < other_offset + other_size
            and other_offset < offset + size)


class BoardDiff(RuleBasedStateMachine):
    """Both boards get the same request stream, each at its own VAs.

    A request names memory as ``(allocation, offset)``; an allocation is
    the id of the request that made it, and ``None`` is an address no
    allocation covers.  Every step asserts that both boards answer with
    the same packets."""

    def __init__(self):
        super().__init__()
        self.wires = (RawWire("cboard"), RawWire("simboard"))
        self.vas = ({}, {})     # per board: allocation -> VA, kept after free
        self.live = {}          # allocation -> bytes, while allocated
        self.history = []       # (request_id, request) of each original
        self.next_id = 1

    # -- issuing --------------------------------------------------------------

    def _va(self, board, where):
        allocation, offset = where
        base = WILD if allocation is None else self.vas[board][allocation]
        return base + offset

    def _packets(self, board, request_id, request, retry_of):
        params = self.wires[board].params
        kind, *args = request
        if kind is PacketType.ALLOC:
            return request_packets(params, request_id, kind,
                                   payload=(*args, None), retry_of=retry_of)
        if kind is PacketType.BATCH:
            subs = tuple(BatchSubOp(op, self._va(board, where), size, data)
                         for op, where, size, data in args[0])
            return request_packets(params, request_id, kind, payload=subs,
                                   retry_of=retry_of)
        if kind in (PacketType.FENCE, PacketType.OFFLOAD):
            return request_packets(params, request_id, kind,
                                   payload=args[0] if args else None,
                                   retry_of=retry_of)
        where, size, payload = args
        return request_packets(params, request_id, kind,
                               va=self._va(board, where), size=size,
                               payload=payload, retry_of=retry_of)

    def _issue(self, request, retry_of=None):
        """Send ``request`` to both boards and check they answer alike;
        returns each board's response packets.  A retry names the original
        request, as CLib's transport does however many times it retries,
        and only originals go into the history."""
        request_id = self.next_id
        self.next_id += 1
        if retry_of is None:
            self.history.append((request_id, request))
        answers = []
        for board, wire in enumerate(self.wires):
            base = self.vas[board].get(retry_of)
            answers.append(wire.issue(
                self._packets(board, request_id, request, retry_of)))
            seen = [observe(packet, base) for packet in answers[-1]]
            if board == 0:
                expected = seen
            else:
                assert seen == expected, f"{request} retry_of={retry_of}"
        return answers

    # -- drawing addresses ----------------------------------------------------

    def _neighbor(self, board, allocation):
        """The allocation starting where ``allocation`` ends, or None."""
        end = self.vas[board][allocation] + self.live[allocation]
        return next((other for other in self.live
                     if self.vas[board][other] == end), None)

    def _where(self, data, size, spill=True):
        """An ``(allocation, offset)`` for a ``size``-byte access: near an
        allocation's start, a page boundary or its end, or nowhere.  It
        runs past the end only where both boards place the same neighbor
        there (their VA layouts differ after frees)."""
        allocation = data.draw(st.sampled_from(sorted(self.live) + [None]))
        if allocation is None:
            return None, data.draw(st.integers(0, 4096))
        length = self.live[allocation]
        anchor = data.draw(st.sampled_from([0, PAGE, length]))
        offset = max(0, anchor + data.draw(st.integers(-size - 64, 64)))
        if offset + size > length and not (
                spill and self._neighbor(0, allocation)
                == self._neighbor(1, allocation)):
            offset = length - size
        return allocation, offset

    def _touched(self, request):
        kind, *args = request
        if kind is PacketType.BATCH:
            return {where[0] for _op, where, _size, _data in args[0]}
        if kind in (PacketType.READ, PacketType.WRITE, PacketType.ATOMIC):
            return {args[0][0]}
        return set()

    # -- rules ----------------------------------------------------------------

    @precondition(lambda self: len(self.live) < 5)
    @rule(size=st.sampled_from([64, PAGE, PAGE + 1]),
          permission=st.sampled_from(PERMISSIONS))
    def alloc(self, size, permission):
        answers = self._issue((PacketType.ALLOC, size, permission))
        request_id = self.history[-1][0]
        for board, (grant,) in enumerate(answers):
            self.vas[board][request_id] = grant.payload.value.va
        self.live[request_id] = answers[0][0].payload.value.size

    @precondition(lambda self: self.live)
    @rule(data=st.data())
    def free(self, data):
        allocation = data.draw(st.sampled_from(sorted(self.live)))
        self._issue((PacketType.FREE, (allocation, 0), 0, None))
        del self.live[allocation]

    @rule()
    def free_unknown(self):
        self._issue((PacketType.FREE, (None, 0), 0, None))

    @rule(data=st.data(), size=st.integers(1, 3100))
    def read(self, data, size):
        self._issue((PacketType.READ, self._where(data, size), size, None))

    @rule(data=st.data(), size=st.integers(1, 3100), seed=st.integers(0, 250))
    def write(self, data, size, seed):
        self._issue((PacketType.WRITE, self._where(data, size), size,
                     pattern(seed, size)))

    @rule(data=st.data(), kind=st.sampled_from(["faa", "cas"]),
          value=st.integers(0, 3))
    def atomic(self, data, kind, value):
        allocation = data.draw(st.sampled_from(sorted(self.live) + [None]))
        # PAGE - 4 is a word across a page boundary: both boards refuse it.
        offset = data.draw(st.sampled_from([0, 8, PAGE - 8, PAGE - 4]))
        op = (AtomicOp("faa", value=value) if kind == "faa"
              else AtomicOp("cas", expected=value % 2, value=value))
        self._issue((PacketType.ATOMIC, (allocation, offset), 0, op))

    @rule()
    def fence(self):
        self._issue((PacketType.FENCE,))

    @rule(data=st.data(), count=st.integers(1, 4))
    def batch(self, data, count):
        """A frame's sub-ops run concurrently on CBoard, so a sub-op that
        conflicts with an earlier one stays out, as CLib's ordering
        tracker keeps it out."""
        subs = []
        for _ in range(count):
            write = data.draw(st.booleans())
            size = data.draw(st.integers(1, 256 if write else 1024))
            where = self._where(data, size, spill=False)
            sub = ((PacketType.WRITE, where, size, pattern(size, size))
                   if write else (PacketType.READ, where, size, None))
            if not any(conflict(sub, other) for other in subs):
                subs.append(sub)
        self._issue((PacketType.BATCH, tuple(subs)))

    @rule()
    def unknown_offload(self):
        self._issue((PacketType.OFFLOAD, ("no-such-offload", None)))

    @precondition(lambda self: self.history)
    @rule(data=st.data())
    def retry(self, data):
        """Re-send an earlier request under a fresh id, as CLib's transport
        does after a timeout, while what it touches is still allocated."""
        candidates = [entry for entry in self.history
                      if self._touched(entry[1]) <= set(self.live) | {None}]
        if not candidates:
            return
        original, request = data.draw(st.sampled_from(candidates))
        self._issue(request, retry_of=original)


BoardDiff.TestCase.settings = settings(max_examples=75,
                                       stateful_step_count=30)
TestBoardDiff = BoardDiff.TestCase
