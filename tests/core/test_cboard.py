"""Integration tests for the assembled CBoard (packet path + local path)."""

from dataclasses import astuple, is_dataclass, replace
from functools import partial
from zlib import crc32

import pytest

from repro.cluster import ClioCluster
from repro.core.addr import AccessType, Permission
from repro.core.cboard import CBoard, ResponseBody
from repro.core.pipeline import Status
from repro.core.sync import AtomicOp
from repro.net.packet import BatchSubOp, ClioHeader, Packet, PacketType
from repro.net.switch import Topology
from repro.params import ClioParams
from repro.sim import Environment
from repro.telemetry.spans import Tracer
from repro.transport.clib_transport import RequestFailed
from repro.verify import check_board

MB = 1 << 20
PAGE = 4 * MB


class Collector:
    """A fake CN endpoint that records packets delivered to it."""

    def __init__(self):
        self.packets = []

    def __call__(self, packet):
        self.packets.append(packet)

    def bodies(self):
        return [packet.payload for packet in self.packets]


def make_wired_board(capacity=256 * MB):
    env = Environment()
    params = ClioParams.prototype()
    topology = Topology(env, params.network)
    board = CBoard(env, params, dram_capacity=capacity)
    board.attach(topology)
    collector = Collector()
    topology.add_node("cn0", collector)
    return env, params, topology, board, collector


def send(env, topology, params, request_id, packet_type, pid=1, va=0,
         size=0, payload=None, fragment=0, fragments=1, retry_of=None,
         corrupt=False):
    header = ClioHeader(src="cn0", dst="mn0", request_id=request_id,
                        packet_type=packet_type, pid=pid, va=va, size=size,
                        total_size=size, fragment=fragment,
                        fragments=fragments, retry_of=retry_of)
    wire = params.network.header_bytes + (
        len(payload) if isinstance(payload, (bytes, bytearray)) else 0)
    topology.send(Packet(header=header, payload=payload, wire_bytes=wire,
                         corrupt=corrupt))


def alloc_va(env, topology, params, board, collector, pid=1, size=PAGE):
    send(env, topology, params, 1000 + pid, PacketType.ALLOC, pid=pid,
         payload=(size, Permission.READ_WRITE, None))
    env.run(until=env.now + 10 ** 8)
    body = collector.packets[-1].payload
    assert body.status is Status.OK
    return body.value.va


def test_alloc_then_write_then_read_over_packets():
    env, params, topology, board, collector = make_wired_board()
    va = alloc_va(env, topology, params, board, collector)
    send(env, topology, params, 2, PacketType.WRITE, va=va, size=4,
         payload=b"abcd")
    env.run(until=env.now + 10 ** 7)
    send(env, topology, params, 3, PacketType.READ, va=va, size=4)
    env.run(until=env.now + 10 ** 7)
    read_body = collector.packets[-1].payload
    assert read_body.status is Status.OK
    assert read_body.data == b"abcd"


def test_corrupt_packet_gets_nack():
    env, params, topology, board, collector = make_wired_board()
    send(env, topology, params, 9, PacketType.READ, va=0, size=4,
         corrupt=True)
    env.run(until=env.now + 10 ** 7)
    assert collector.packets
    assert collector.packets[-1].header.packet_type is PacketType.NACK
    assert collector.packets[-1].header.request_id == 9
    assert board.nacks_sent == 1


def test_multi_fragment_write_gets_single_ack():
    env, params, topology, board, collector = make_wired_board()
    va = alloc_va(env, topology, params, board, collector)
    data = bytes(range(256)) * 12   # 3072B -> 3 fragments at 1500 MTU
    mtu = params.network.mtu
    offsets = [(0, mtu), (mtu, mtu), (2 * mtu, len(data) - 2 * mtu)]
    before = len(collector.packets)
    for index, (offset, chunk) in enumerate(offsets):
        send(env, topology, params, 50, PacketType.WRITE, va=va + offset,
             size=chunk, payload=data[offset:offset + chunk],
             fragment=index, fragments=3)
    env.run(until=env.now + 10 ** 7)
    acks = collector.packets[before:]
    assert len(acks) == 1
    assert acks[0].payload.status is Status.OK
    # Verify content landed correctly.
    send(env, topology, params, 51, PacketType.READ, va=va, size=len(data))
    env.run(until=env.now + 10 ** 7)
    read_fragments = [packet for packet in collector.packets
                      if packet.header.request_id == 51]
    got = b"".join(packet.payload.data for packet in
                   sorted(read_fragments, key=lambda p: p.header.fragment))
    assert got == data


def test_large_read_response_is_fragmented():
    env, params, topology, board, collector = make_wired_board()
    va = alloc_va(env, topology, params, board, collector)
    send(env, topology, params, 60, PacketType.WRITE, va=va, size=100,
         payload=b"y" * 100)
    env.run(until=env.now + 10 ** 7)
    send(env, topology, params, 61, PacketType.READ, va=va, size=4000)
    env.run(until=env.now + 10 ** 7)
    fragments = [packet for packet in collector.packets
                 if packet.header.request_id == 61]
    assert len(fragments) == 3   # 4000B / 1500 MTU
    assert all(packet.header.fragments == 3 for packet in fragments)


def test_retried_write_dedups_against_executed_original():
    env, params, topology, board, collector = make_wired_board()
    va = alloc_va(env, topology, params, board, collector)
    send(env, topology, params, 70, PacketType.WRITE, va=va, size=4,
         payload=b"v1!!")
    env.run(until=env.now + 10 ** 7)
    # Another writer updates the same location.
    send(env, topology, params, 71, PacketType.WRITE, va=va, size=4,
         payload=b"v2!!")
    env.run(until=env.now + 10 ** 7)
    # A stale retry of request 70 arrives late; it must NOT undo v2.
    send(env, topology, params, 72, PacketType.WRITE, va=va, size=4,
         payload=b"v1!!", retry_of=70)
    env.run(until=env.now + 10 ** 7)
    send(env, topology, params, 73, PacketType.READ, va=va, size=4)
    env.run(until=env.now + 10 ** 7)
    assert collector.packets[-1].payload.data == b"v2!!"
    assert board.retry_buffer.dedup_hits == 1


def test_retried_atomic_returns_cached_result():
    env, params, topology, board, collector = make_wired_board()
    va = alloc_va(env, topology, params, board, collector)
    send(env, topology, params, 80, PacketType.ATOMIC, va=va,
         payload=AtomicOp(kind="faa", value=5))
    env.run(until=env.now + 10 ** 7)
    first = collector.packets[-1].payload.atomic
    assert first.old_value == 0
    # Retry must not add again; it returns the cached old value.
    send(env, topology, params, 81, PacketType.ATOMIC, va=va,
         payload=AtomicOp(kind="faa", value=5), retry_of=80)
    env.run(until=env.now + 10 ** 7)
    cached = collector.packets[-1].payload.atomic
    assert cached.old_value == 0
    send(env, topology, params, 82, PacketType.ATOMIC, va=va,
         payload=AtomicOp(kind="faa", value=0))
    env.run(until=env.now + 10 ** 7)
    assert collector.packets[-1].payload.atomic.old_value == 5  # only one add


def test_fence_blocks_later_requests_until_drain():
    """The MN fence orders requests by *arrival*: a fence arriving while a
    write is in the pipeline completes after it, and requests arriving
    after the fence wait for the drain.  Packets are injected directly at
    the board so arrival order is exact (the network may reorder; send-
    side ordering is CLib's job)."""
    env, params, topology, board, collector = make_wired_board()
    va = alloc_va(env, topology, params, board, collector)
    before = len(collector.packets)

    def inject(request_id, packet_type, delay, **kwargs):
        yield env.timeout(delay)
        header = ClioHeader(src="cn0", dst="mn0", request_id=request_id,
                            packet_type=packet_type, pid=1, va=va,
                            size=kwargs.get("size", 0),
                            total_size=kwargs.get("size", 0))
        board.receive(Packet(header=header, payload=kwargs.get("payload"),
                             wire_bytes=64 + kwargs.get("size", 0)))

    # Record MN-side completion order (response *generation*, immune to
    # response-path network jitter).
    completion_order = []
    original_send = board._send

    def recording_send(dst, request_id, packet_type, body, **kwargs):
        completion_order.append(request_id)
        original_send(dst, request_id, packet_type, body, **kwargs)

    board._send = recording_send

    # Write arrives first; fence lands mid-pipeline; read right behind it.
    env.process(inject(90, PacketType.WRITE, 0, size=1024,
                       payload=b"w" * 1024))
    env.process(inject(91, PacketType.FENCE, 10))
    env.process(inject(92, PacketType.READ, 20, size=4))
    env.run(until=env.now + 10 ** 8)
    order = [request_id for request_id in completion_order
             if request_id in (90, 91, 92)]
    assert order == [90, 91, 92]


def test_invalid_va_read_returns_error_status():
    env, params, topology, board, collector = make_wired_board()
    send(env, topology, params, 95, PacketType.READ, va=123 * PAGE, size=4)
    env.run(until=env.now + 10 ** 7)
    assert collector.packets[-1].payload.status is Status.INVALID_VA


def test_free_then_access_fails():
    env, params, topology, board, collector = make_wired_board()
    va = alloc_va(env, topology, params, board, collector)
    send(env, topology, params, 96, PacketType.WRITE, va=va, size=4,
         payload=b"data")
    env.run(until=env.now + 10 ** 7)
    send(env, topology, params, 97, PacketType.FREE, va=va)
    env.run(until=env.now + 10 ** 8)
    send(env, topology, params, 98, PacketType.READ, va=va, size=4)
    env.run(until=env.now + 10 ** 7)
    assert collector.packets[-1].payload.status is Status.INVALID_VA


def test_execute_local_matches_packet_semantics():
    env = Environment()
    board = CBoard(env, ClioParams.prototype(), dram_capacity=256 * MB)
    outcome = {}

    def driver():
        response = yield from board.slow_path.handle_alloc(1, 64)
        va = response.va
        yield from board.execute_local(1, AccessType.WRITE, va, 5, b"local")
        result = yield from board.execute_local(1, AccessType.READ, va, 5)
        outcome["data"] = result.data

    env.run(until=env.process(driver()))
    assert outcome["data"] == b"local"


def test_stats_shape():
    env, params, topology, board, collector = make_wired_board()
    stats = board.metrics.snapshot()
    for key in ("requests_served", "tlb.hit_rate", "faults",
                "memory_utilization", "page_table.entries", "alive",
                "crashes", "restarts", "packets_dropped_dead",
                "responses_discarded"):
        assert key in stats


# -- crash / restart ---------------------------------------------------------------


def test_crashed_board_drops_packets_silently():
    env, params, topology, board, collector = make_wired_board()
    va = alloc_va(env, topology, params, board, collector)
    send(env, topology, params, 200, PacketType.WRITE, va=va, size=4,
         payload=b"live")
    env.run(until=env.now + 10 ** 7)
    before = len(collector.packets)
    board.crash()
    send(env, topology, params, 201, PacketType.READ, va=va, size=4)
    env.run(until=env.now + 10 ** 8)
    assert len(collector.packets) == before   # no response, no NACK
    assert board.packets_dropped_dead == 1
    assert not board.alive and board.crashes == 1


def test_restart_preserves_page_table_and_data():
    """The crash-recovery argument: the page table (and DRAM) are the only
    durable MN state, so after a restart the same VA reads back the same
    bytes — nothing to replay, caches re-warm on demand."""
    env, params, topology, board, collector = make_wired_board()
    va = alloc_va(env, topology, params, board, collector)
    send(env, topology, params, 210, PacketType.WRITE, va=va, size=4,
         payload=b"keep")
    env.run(until=env.now + 10 ** 7)
    entries_before = board.page_table.entry_count
    board.crash()
    assert len(board.tlb) == 0                 # volatile: wiped
    assert len(board.retry_buffer) == 0        # volatile: wiped
    assert board.page_table.entry_count == entries_before   # durable
    board.restart()
    send(env, topology, params, 211, PacketType.READ, va=va, size=4)
    env.run(until=env.now + 10 ** 7)
    body = collector.packets[-1].payload
    assert body.status is Status.OK
    assert body.data == b"keep"


def test_crash_mid_request_discards_inflight_response():
    env, params, topology, board, collector = make_wired_board()
    va = alloc_va(env, topology, params, board, collector)
    before = len(collector.packets)
    # Inject directly at the board so the crash provably lands while the
    # write is in the pipeline (no network delay to reason about).
    header = ClioHeader(src="cn0", dst="mn0", request_id=220,
                        packet_type=PacketType.WRITE, pid=1, va=va,
                        size=4, total_size=4)
    board.receive(Packet(header=header, payload=b"lost", wire_bytes=68))
    env.schedule_callback(50, board.crash)     # pipeline takes far longer
    env.run(until=env.now + 10 ** 8)
    assert board.responses_discarded >= 1
    assert len(collector.packets) == before    # the response never left
    assert board._inflight == 0                # bookkeeping not corrupted


def test_crash_between_tlb_hit_and_dram_discards_the_response():
    """The hit lane claims DRAM when ingest ends; a crash after that and
    before the data is there still loses the response."""
    env, params, topology, board, collector = make_wired_board()
    va = alloc_va(env, topology, params, board, collector)
    send(env, topology, params, 240, PacketType.WRITE, va=va, size=4,
         payload=b"warm")                      # PTE present, TLB warm
    env.run(until=env.now + 10 ** 7)
    before, hits = len(collector.packets), board.tlb.hits
    seen = {}

    def crash():
        seen["hits"] = board.tlb.hits          # the lane has looked up
        board.crash()

    header = ClioHeader(src="cn0", dst="mn0", request_id=241,
                        packet_type=PacketType.READ, pid=1, va=va, size=4,
                        total_size=4)
    board.receive(Packet(header=header, payload=None, wire_bytes=64))
    # Ingest + fixed stages take 64 ns, the DRAM access 300 ns more.
    env.schedule_callback(200, crash)
    env.run(until=env.now + 10 ** 8)
    assert seen["hits"] == hits + 1
    assert board.responses_discarded == 1
    assert len(collector.packets) == before    # the response never left
    assert board._inflight == 0


def test_crash_restart_state_machine():
    env, params, topology, board, collector = make_wired_board()
    with pytest.raises(ValueError):
        board.restart()                        # not crashed
    board.crash()
    with pytest.raises(ValueError):
        board.crash()                          # already crashed
    board.restart()
    assert board.alive and board.crashes == 1 and board.restarts == 1


def test_board_serves_normally_after_crash_restart_cycle():
    env, params, topology, board, collector = make_wired_board()
    va = alloc_va(env, topology, params, board, collector)
    board.crash()
    board.restart()
    send(env, topology, params, 230, PacketType.WRITE, va=va, size=4,
         payload=b"back")
    env.run(until=env.now + 10 ** 7)
    send(env, topology, params, 231, PacketType.READ, va=va, size=4)
    env.run(until=env.now + 10 ** 7)
    assert collector.packets[-1].payload.data == b"back"


@pytest.mark.parametrize("fault, orphans", [("loss_rate", 89),
                                            ("corruption_rate", 77)])
def test_a_write_that_lost_a_fragment_leaves_no_countdown_behind(fault,
                                                                 orphans):
    """A 4 KB write is three packets.  When one is lost, or NACKed as
    corrupt before any handler sees it, that attempt's countdown never
    reaches zero: the CN retries under a new request id.  The entry goes
    once a new one is ``slow_timeout_ns`` younger."""
    params = ClioParams.prototype()
    params = replace(params, network=replace(params.network,
                                             **{fault: 0.05}))
    cluster = ClioCluster(params=params, seed=1, mn_capacity=256 * MB)
    env, board = cluster.env, cluster.mn
    thread = cluster.cn(0).process("mn0").thread()
    seen = {}

    def writes(va, count):
        for _ in range(count):
            try:
                yield from thread.rwrite(va, b"x" * 4096)
            except RequestFailed:
                pass

    def app():
        va = yield from thread.ralloc(4 * MB)
        yield from writes(va, 200)
        yield env.timeout(params.clib.slow_timeout_ns)     # quiesce
        seen["orphans"] = set(board._write_progress)
        seen["quiet_at"] = env.now
        yield env.timeout(1)
        yield from writes(va, 1)

    cluster.run(until=env.process(app()))
    assert len(seen["orphans"]) == orphans
    assert not seen["orphans"] & set(board._write_progress)
    assert all(progress.born > seen["quiet_at"]
               for progress in board._write_progress.values())
    assert check_board(board) == []


def _handled(board):
    """Request ids that reach ``board._handle``, in arrival order; the
    rest went from the port to the fast path."""
    handled, handle = [], board._handle

    def spy(packet, path, epoch, start):
        handled.append(packet.header.request_id)
        return handle(packet, path, epoch, start)

    board._handle = spy
    return handled


def test_every_read_and_write_skips_the_handler():
    """Retries and write fragments too: a READ or WRITE never reaches
    ``Board._handle``, and a retry whose original ran does not rerun."""
    env, params, topology, board, collector = make_wired_board()
    va = alloc_va(env, topology, params, board, collector)
    handled = _handled(board)
    requests = [
        (400, PacketType.READ, dict(size=64)),
        (401, PacketType.WRITE, dict(size=4, payload=b"lane")),
        (402, PacketType.WRITE, dict(size=4, payload=b"lane", retry_of=401)),
        (403, PacketType.READ, dict(va=va + PAGE - 2, size=4)),  # two pages
        (405, PacketType.WRITE, dict(size=2, payload=b"ab", fragments=2)),
        (405, PacketType.WRITE, dict(va=va + 2, size=2, payload=b"cd",
                                     fragment=1, fragments=2)),
        (406, PacketType.ATOMIC, dict(payload=AtomicOp(kind="faa", value=1))),
    ]
    for request_id, kind, fields in requests:
        send(env, topology, params, request_id, kind,
             **{"va": va, **fields})
        env.run(until=env.now + 10 ** 7)
    assert handled == [406]
    assert board.retry_buffer.dedup_hits == 1     # the retry did not rerun
    assert board._inflight == 0 and board._write_progress == {}


def test_a_fence_waits_for_lane_requests_and_a_read_behind_it_waits():
    env, params, topology, board, collector = make_wired_board()
    va = alloc_va(env, topology, params, board, collector)
    send(env, topology, params, 409, PacketType.WRITE, va=va, size=4,
         payload=b"warm")
    env.run(until=env.now + 10 ** 7)
    handled = _handled(board)
    order, original_send = [], board._send

    def recording_send(dst, request_id, packet_type, body, **kwargs):
        order.append(request_id)
        original_send(dst, request_id, packet_type, body, **kwargs)

    board._send = recording_send

    def inject(request_id, kind, delay, size=0, payload=None):
        yield env.timeout(delay)
        header = ClioHeader("cn0", "mn0", request_id, kind, 1, va, size,
                            size)
        board.receive(Packet(header, payload, 64 + size))

    env.process(inject(410, PacketType.READ, 0, size=1024))
    env.process(inject(411, PacketType.WRITE, 0, size=4, payload=b"w411"))
    env.process(inject(412, PacketType.FENCE, 10))
    env.process(inject(413, PacketType.READ, 20, size=4))
    env.run(until=env.now + 10 ** 8)
    assert order == [411, 410, 412, 413]
    assert handled == [412]


#: ``(request id, status, data, when the MN sent the response, stages,
#: total)`` of one-packet accesses across a page boundary, recorded when
#: ``Board.receive`` sent them to a handler: first touch of both pages,
#: then TLB hits.
TWO_PAGE_TIMINGS = [
    (440, "ok", None, 100001977, (8, 60, 608, 24, 300), 1000),
    (441, "ok", b"abcdefgh", 110001198, (4, 60, 0, 0, 300), 364),
    (442, "ok", None, 120001231, (8, 60, 0, 0, 300), 368),
    (443, "ok", b"ABCDEFGH", 130001208, (4, 60, 0, 0, 300), 364),
]


def test_one_packet_two_page_accesses_take_the_lane_with_their_timing():
    env, params, topology, board, collector = make_wired_board()
    va = alloc_va(env, topology, params, board, collector, size=2 * PAGE)
    handled = _handled(board)
    requests = [(440, PacketType.WRITE, b"abcdefgh"),
                (441, PacketType.READ, None),
                (442, PacketType.WRITE, b"ABCDEFGH"),
                (443, PacketType.READ, None)]
    for request_id, kind, payload in requests:
        send(env, topology, params, request_id, kind, va=va + PAGE - 4,
             size=8, payload=payload)
        env.run(until=env.now + 10 ** 7)
    timings = []
    for packet in collector.packets[-len(requests):]:
        body = packet.payload
        timings.append((packet.header.request_id, body.status.value,
                        body.data, packet.sent_at, body.breakdown.stages(),
                        body.breakdown.total_ns))
    assert timings == TWO_PAGE_TIMINGS
    assert handled == [] and board.fast_path.faults == 2
    assert (env.now, env._seq) == (140000000, 9385)


#: A fresh board and CN: ``(request id, status, when the MN sent the
#: response, stages, total)`` of lane accesses that miss the TLB, fault
#: a page in on first touch and fail the permission check, recorded when
#: each one ran as three generators under ``Board._handle``.
LANE_TIMINGS = [
    (421, "ok", 110001523, (8, 60, 304, 12, 300), 684),
    (422, "ok", 120001219, (4, 60, 0, 0, 300), 364),
    (423, "ok", 130001524, (4, 60, 304, 12, 300), 680),
    (424, "permission", 140001010, (8, 60, 0, 0, 0), 68),
    (425, "permission", 150001223, (8, 60, 304, 0, 0), 372),
    (426, "invalid_va", 160001233, (4, 60, 304, 0, 0), 368),
]


def test_lane_misses_faults_and_rejections_keep_their_timing():
    env, params, topology, board, collector = make_wired_board()
    va = alloc_va(env, topology, params, board, collector)
    send(env, topology, params, 1002, PacketType.ALLOC, pid=1,
         payload=(PAGE, Permission.READ, None))
    env.run(until=env.now + 10 ** 7)
    read_only = collector.packets[-1].payload.value.va
    requests = [
        (421, PacketType.WRITE, va, b"first"),      # miss + first touch
        (422, PacketType.READ, va, None),           # hit
        (423, PacketType.READ, read_only, None),    # miss + first touch
        (424, PacketType.WRITE, read_only, b"nope"),   # hit, rejected
        (425, PacketType.WRITE, read_only, b"nope"),   # miss, rejected
        (426, PacketType.READ, 123 * PAGE, None),   # miss, no PTE
    ]
    for request_id, kind, address, payload in requests:
        if request_id == 425:
            board.tlb.flush()
        send(env, topology, params, request_id, kind, va=address,
             size=len(payload) if payload else 8, payload=payload)
        env.run(until=env.now + 10 ** 7)
    timings = []
    for packet in collector.packets[-len(requests):]:
        body = packet.payload
        timings.append((packet.header.request_id, body.status.value,
                        packet.sent_at, body.breakdown.stages(),
                        body.breakdown.total_ns))
    assert timings == LANE_TIMINGS
    assert board.fast_path.faults == 2


class CountingVerifier:
    def __init__(self):
        self.requests = 0

    def on_board_request(self, board):
        self.requests += 1


def test_the_verifier_sees_each_lane_request_once():
    env, params, topology, board, collector = make_wired_board()
    va = alloc_va(env, topology, params, board, collector)
    board.verifier = verifier = CountingVerifier()
    for request_id in range(430, 436):
        if request_id % 2:
            send(env, topology, params, request_id, PacketType.READ, va=va,
                 size=64)
        else:
            send(env, topology, params, request_id, PacketType.WRITE, va=va,
                 size=4, payload=b"seen")
    env.run(until=env.now + 10 ** 7)
    assert verifier.requests == 6


# -- requests behind a fence, fragments and retries -----------------------------
#
# Each table below was recorded when write fragments, retries and anything
# behind a fence ran as generators under ``Board._handle``; the board now
# serves them as callbacks from the port, and every value must hold.

def _arrive(env, board, delay, request_id, kind, va, size=0, payload=None,
            fragment=0, fragments=1, retry_of=None):
    """Put a packet on the board's port ``delay`` ns from now, with no
    network in between, so arrival order is exact."""
    header = ClioHeader("cn0", "mn0", request_id, kind, 1, va, size, size,
                        fragment, fragments, retry_of)
    env.schedule_callback(delay, partial(
        board.receive, Packet(header, payload, 64 + size)))


def _arrive_write(env, board, delay, request_id, va, data, mtu,
                  retry_of=None, skip=()):
    """A write of ``data`` as the fragments a CN sends, but those in
    ``skip``, one nanosecond apart."""
    chunks = [(offset, data[offset:offset + mtu])
              for offset in range(0, len(data), mtu)]
    for index, (offset, chunk) in enumerate(chunks):
        if index not in skip:
            _arrive(env, board, delay + index, request_id, PacketType.WRITE,
                    va + offset, len(chunk), chunk, index, len(chunks),
                    retry_of)


def _answers(collector, request_ids):
    """``(request id, fragment, status, data's CRC-32 or None, when the MN
    sent it, stages, total)`` of every response to ``request_ids``, in the
    order they reached the CN; stages and total are on fragment 0 only."""
    answers = []
    for packet in collector.packets:
        body = packet.payload
        if packet.header.request_id in request_ids:
            answers.append((
                packet.header.request_id, packet.header.fragment,
                body.status.value,
                None if body.data is None else crc32(body.data),
                packet.sent_at,
                body.breakdown and body.breakdown.stages(),
                body.breakdown and body.breakdown.total_ns))
    return answers


def _read_back(collector, request_id):
    return b"".join(packet.payload.data for packet in collector.packets
                    if packet.header.request_id == request_id)


FENCED_ANSWERS = [
    (500, 0, "ok", None, 110000496, (68, 60, 0, 0, 368), 496),
    (501, 0, "ok", None, 110000496, None, None),
    (502, 0, "ok", 2023723214, 110000868, (8, 60, 0, 0, 304), 372),
    (503, 0, "ok", None, 110000872, (16, 60, 0, 0, 300), 376),
    (504, 0, "ok", None, 110001172, (560, 180, 0, 0, 1104), 1844),
    (505, 0, "ok", 3604821515, 110001606, (484, 60, 0, 0, 566), 1110),
    (505, 1, "ok", 451121015, 110001606, None, None),
    (505, 2, "ok", 3138104000, 110001606, None, None),
]


def test_requests_behind_a_fence_keep_their_bytes_and_timing():
    """A one-packet READ and WRITE and a 3-fragment READ (its response)
    and WRITE, all arriving while a fence drains a 1 KB write."""
    env, params, topology, board, collector = make_wired_board()
    va = alloc_va(env, topology, params, board, collector)
    mtu = params.network.mtu
    _arrive_write(env, board, 0, 499, va, bytes(range(256)) * 16, mtu)
    env.run(until=env.now + 10 ** 7)
    _arrive(env, board, 0, 500, PacketType.WRITE, va + 8192, 1024,
            b"w" * 1024)
    _arrive(env, board, 10, 501, PacketType.FENCE, va)
    _arrive(env, board, 20, 502, PacketType.READ, va + 4, 64)
    _arrive(env, board, 20, 503, PacketType.WRITE, va + 4096, 4, b"f503")
    _arrive_write(env, board, 30, 504, va + 8192 + 1024,
                  b"abc" * 1024, mtu)
    _arrive(env, board, 40, 505, PacketType.READ, va + 8, 4000)
    env.run(until=env.now + 10 ** 7)
    assert _answers(collector, range(500, 506)) == FENCED_ANSWERS
    written = bytes(range(256)) * 16
    assert _read_back(collector, 502) == written[4:68]
    assert _read_back(collector, 505) == written[8:4008]
    assert board._inflight == 0 and board._write_progress == {}
    assert (env.now, env._seq) == (120000000, 8078)


RETRIED_ANSWERS = [
    (510, 0, "ok", None, 100000684, (8, 60, 304, 12, 300), 684),
    (511, 0, "ok", None, 110000368, (8, 60, 0, 0, 300), 368),
    (512, 0, "ok", None, 120000016, (0, 0, 0, 0, 0), 0),
    (513, 0, "ok", None, 130000694, (565, 180, 0, 0, 1166), 1911),
    (514, 0, "ok", None, 140000018, (0, 0, 0, 0, 0), 0),
    (515, 0, "ok", 3300236048, 150000890, (260, 60, 0, 0, 570), 890),
    (515, 1, "ok", 184497729, 150000890, None, None),
    (515, 2, "ok", 716968277, 150000890, None, None),
]


def test_retried_writes_whose_original_ran_are_answered_without_running():
    env, params, topology, board, collector = make_wired_board()
    va = alloc_va(env, topology, params, board, collector)
    mtu = params.network.mtu
    for request_id, payload, retry_of in ((510, b"v1!!", None),
                                          (511, b"v2!!", None),
                                          (512, b"v1!!", 510)):
        _arrive(env, board, 0, request_id, PacketType.WRITE, va, 4, payload,
                retry_of=retry_of)
        env.run(until=env.now + 10 ** 7)
    _arrive_write(env, board, 0, 513, va + 64, b"one!" * 1000, mtu)
    env.run(until=env.now + 10 ** 7)
    _arrive_write(env, board, 0, 514, va + 64, b"two!" * 1000, mtu,
                  retry_of=513)
    env.run(until=env.now + 10 ** 7)
    _arrive(env, board, 0, 515, PacketType.READ, va, 4064)
    env.run(until=env.now + 10 ** 7)
    assert _answers(collector, range(510, 516)) == RETRIED_ANSWERS
    assert _read_back(collector, 515) == b"v2!!" + bytes(60) + b"one!" * 1000
    assert board.retry_buffer.dedup_hits == 4
    assert board._inflight == 0 and board._write_progress == {}
    assert (env.now, env._seq) == (160000000, 10732)


RETRIED_FRAGMENTS_ANSWERS = [
    (521, 0, "ok", None, 110000694, (565, 180, 0, 0, 1166), 1911),
    (522, 0, "ok", 1248021163, 120000882, (256, 60, 0, 0, 566), 882),
    (522, 1, "ok", 1248021163, 120000882, None, None),
    (522, 2, "ok", 3144693507, 120000882, None, None),
]


def test_a_retried_multi_fragment_write_runs_when_its_original_did_not():
    """The original lost its last fragment: no ack, and its countdown
    stays until a newer one outlives it; the retry runs and is acked."""
    env, params, topology, board, collector = make_wired_board()
    va = alloc_va(env, topology, params, board, collector)
    mtu = params.network.mtu
    _arrive_write(env, board, 0, 520, va, b"old!" * 1000, mtu, skip={2})
    env.run(until=env.now + 10 ** 7)
    _arrive_write(env, board, 0, 521, va, b"new!" * 1000, mtu, retry_of=520)
    env.run(until=env.now + 10 ** 7)
    _arrive(env, board, 0, 522, PacketType.READ, va, 4000)
    env.run(until=env.now + 10 ** 7)
    assert _answers(collector, range(520, 523)) == RETRIED_FRAGMENTS_ANSWERS
    assert _read_back(collector, 522) == b"new!" * 1000
    assert board.retry_buffer.dedup_hits == 0
    assert board._inflight == 0 and list(board._write_progress) == [520]
    assert (env.now, env._seq) == (130000000, 8713)


#: ``(name, start, end)`` of what a fenced READ records, and ``at`` for an
#: instant, in write order.
FENCED_READ_RECORDS = [
    ("page_fault", 100000432, 100000444),
    ("mn:write", 100000000, 100000812),
    ("fastpath:write", 100000000, 100000812),
    ("mn_response", 100000812),
    ("mn_response", 100000812),
    ("mn:fence", 100000010, 100000812),
    ("fastpath:read", 100000812, 100001184),
    ("mn_response", 100001184),
    ("mn:read", 100000020, 100001184),
]


def test_a_traced_fenced_read_spans_its_wait_behind_the_fence():
    env, params, topology, board, collector = make_wired_board()
    va = alloc_va(env, topology, params, board, collector)
    board.set_tracer(tracer := Tracer(env))
    arrived = env.now + 20
    _arrive(env, board, 0, 550, PacketType.WRITE, va, 1024, b"w" * 1024)
    _arrive(env, board, 10, 551, PacketType.FENCE, va)
    _arrive(env, board, 20, 552, PacketType.READ, va, 64)
    env.run(until=env.now + 10 ** 7)
    records = sorted(
        [(span.seq, span.name, span.start_ns, span.end_ns)
         for span in tracer.find_spans()]
        + [(instant.seq, instant.name, instant.at_ns)
           for instant in tracer.find_instants()])
    assert [record[1:] for record in records] == FENCED_READ_RECORDS
    read, = tracer.find_spans("mn:read")
    assert read.start_ns == arrived and read.args["request_id"] == 552


def test_a_crash_orphans_the_requests_parked_behind_a_fence():
    env, params, topology, board, collector = make_wired_board()
    va = alloc_va(env, topology, params, board, collector)
    _arrive(env, board, 0, 0, PacketType.WRITE, va + 64, 4, b"kept")
    env.run(until=env.now + 10 ** 7)
    before = len(collector.packets)
    _arrive(env, board, 0, 530, PacketType.WRITE, va + 4096, 1024,
            b"w" * 1024)
    _arrive(env, board, 10, 531, PacketType.FENCE, va)
    _arrive(env, board, 20, 532, PacketType.READ, va, 64)
    _arrive(env, board, 20, 533, PacketType.WRITE, va + 64, 4, b"lost")
    _arrive(env, board, 20, 534, PacketType.FENCE, va)
    env.schedule_callback(30, board.crash)
    env.schedule_callback(1_000, board.restart)
    env.run(until=env.now + 10 ** 7)
    assert len(collector.packets) == before      # nothing parked answered
    assert board._inflight == 0 and board._fence_barrier is None
    _arrive(env, board, 0, 535, PacketType.FENCE, va)
    _arrive(env, board, 10, 536, PacketType.READ, va + 64, 4)
    env.run(until=env.now + 10 ** 7)
    assert [(packet.header.request_id, packet.payload.data)
            for packet in collector.packets[before:]] == [
        (535, None), (536, b"kept")]
    assert (env.now, env._seq) == (130000000, 8709)


def test_a_crash_as_the_fence_answers_loses_what_it_held_back():
    """The barrier fires after the fence's answer.  A crash in between
    still loses what parked on it: it meets a dark port, nothing runs,
    the in-flight count stays 0 and a later fence is answered."""
    env, params, topology, board, collector = make_wired_board()
    va = alloc_va(env, topology, params, board, collector)
    _arrive(env, board, 0, 0, PacketType.WRITE, va + 64, 4, b"kept")
    env.run(until=env.now + 10 ** 7)
    original_send = board._send

    def send_then_crash(dst, request_id, packet_type, body, **kwargs):
        original_send(dst, request_id, packet_type, body, **kwargs)
        if request_id == 571:
            env.schedule_callback(0, board.crash)

    board._send = send_then_crash
    _arrive(env, board, 0, 570, PacketType.WRITE, va + 4096, 1024,
            b"w" * 1024)
    _arrive(env, board, 10, 571, PacketType.FENCE, va)
    _arrive(env, board, 20, 572, PacketType.WRITE, va + 64, 4, b"lost")
    _arrive(env, board, 20, 573, PacketType.READ, va, 64)
    env.schedule_callback(10_000, board.restart)
    env.run(until=env.now + 10 ** 7)
    assert board.crashes == 1 and board._inflight == 0
    assert board.packets_dropped_dead == 2
    before = len(collector.packets)
    _arrive(env, board, 0, 574, PacketType.FENCE, va)
    _arrive(env, board, 10, 575, PacketType.READ, va + 64, 4)
    env.run(until=env.now + 10 ** 7)
    assert [(packet.header.request_id, packet.payload.data)
            for packet in collector.packets[before:]] == [
        (574, None), (575, b"kept")]


def test_a_fence_behind_a_fence_answers_in_arrival_order():
    env, params, topology, board, collector = make_wired_board()
    va = alloc_va(env, topology, params, board, collector)
    order, original_send = [], board._send

    def recording_send(dst, request_id, packet_type, body, **kwargs):
        order.append((request_id, env.now))
        original_send(dst, request_id, packet_type, body, **kwargs)

    board._send = recording_send
    _arrive(env, board, 0, 540, PacketType.WRITE, va, 1024, b"w" * 1024)
    _arrive(env, board, 10, 541, PacketType.FENCE, va)
    _arrive(env, board, 15, 542, PacketType.FENCE, va)
    _arrive(env, board, 20, 543, PacketType.READ, va, 64)
    _arrive(env, board, 25, 544, PacketType.FENCE, va)
    env.run(until=env.now + 10 ** 7)
    assert order == [(540, 100000812), (541, 100000812), (542, 100000812),
                     (543, 100001184), (544, 100001184)]
    assert (env.now, env._seq) == (110000000, 7378)


@pytest.mark.parametrize("kind, payload", [(PacketType.READ, None),
                                           (PacketType.WRITE, b"")])
def test_a_request_of_no_bytes_raises_at_the_port(kind, payload):
    env, params, topology, board, collector = make_wired_board()
    va = alloc_va(env, topology, params, board, collector)
    header = ClioHeader("cn0", "mn0", 560, kind, 1, va, 0, 0)
    with pytest.raises(ValueError, match="size must be positive"):
        board.receive(Packet(header, payload, 64))
    _arrive(env, board, 0, 561, PacketType.WRITE, va, 1024, b"w" * 1024)
    _arrive(env, board, 10, 562, PacketType.FENCE, va)
    _arrive(env, board, 20, 563, kind, va, 0, payload)
    with pytest.raises(ValueError, match="size must be positive"):
        env.run(until=env.now + 10 ** 7)


# -- atomics, batches and once-only requests, pinned -------------------------------
#
# Each table below was recorded when every handler replayed its own retry,
# answered its own fragments and an atomic was translated by a second copy
# of the fast path's TLB stage and walk; every value must hold.

def _plain(value):
    """A response's ``value`` or ``atomic`` as plain data: a batch's
    status vector as names, a record as its fields."""
    if isinstance(value, tuple):
        return tuple(status.value for status in value)
    return astuple(value) if is_dataclass(value) else value


def _replies(collector, request_ids):
    """``(request id, fragment, fragments, total size, status, data's
    CRC-32 or None, value, atomic, when the MN sent it)`` of every response
    to ``request_ids``, in the order they reached the CN."""
    return [(packet.header.request_id, packet.header.fragment,
             packet.header.fragments, packet.header.total_size,
             packet.payload.status.value,
             None if packet.payload.data is None
             else crc32(packet.payload.data),
             _plain(packet.payload.value), _plain(packet.payload.atomic),
             packet.sent_at)
            for packet in collector.packets
            if packet.header.request_id in request_ids]


ATOMIC_ANSWERS = [
    (600, 0, 1, 0, "ok", None, None, (0, True), 110000980),
    (601, 0, 1, 0, "ok", None, None, (5, True), 120000664),
    (602, 0, 1, 0, "ok", None, None, (7, True), 130000968),
    (603, 0, 1, 0, "permission", None, None, None, 140000368),
    (604, 0, 1, 8, "ok", 1696784233, None, None, 150000684),
    (605, 0, 1, 0, "permission", None, None, None, 160000064),
    (606, 0, 1, 0, "ok", None, None, (0, True), 170000000),
    (607, 0, 1, 8, "ok", 2054014018, None, None, 180000368),
]


def test_atomics_keep_their_answers_and_timing():
    """First touch (a walk and a fault), a TLB hit, a miss on a present
    page, a permission rejection on a miss and on a hit, and a retry whose
    original ran, which replays the original's answer."""
    env, params, topology, board, collector = make_wired_board()
    va = alloc_va(env, topology, params, board, collector)
    send(env, topology, params, 1002, PacketType.ALLOC, pid=1,
         payload=(PAGE, Permission.READ, None))
    env.run(until=env.now + 10 ** 7)
    read_only = collector.packets[-1].payload.value.va
    faa, cas = partial(AtomicOp, "faa"), partial(AtomicOp, "cas")
    requests = [(600, va, faa(value=5), None),            # miss + fault
                (601, va, faa(value=2), None),            # hit
                (602, va, cas(expected=7, value=9), None),  # miss, present
                (603, read_only, faa(value=1), None),     # miss, rejected
                (605, read_only, faa(value=1), None),     # hit, rejected
                (606, va, faa(value=100), 600)]           # replayed
    for request_id, address, op, retry_of in requests:
        if request_id == 602:
            board.tlb.flush()
        if request_id == 605:
            _arrive(env, board, 0, 604, PacketType.READ, read_only, 8)
            env.run(until=env.now + 10 ** 7)
        _arrive(env, board, 0, request_id, PacketType.ATOMIC, address,
                payload=op, retry_of=retry_of)
        env.run(until=env.now + 10 ** 7)
    _arrive(env, board, 0, 607, PacketType.READ, va, 8)
    env.run(until=env.now + 10 ** 7)
    assert _replies(collector, range(600, 608)) == ATOMIC_ANSWERS
    assert _read_back(collector, 607) == (9).to_bytes(8, "little")
    assert board.retry_buffer.dedup_hits == 1
    assert board.atomic_unit.operations == 3
    assert board._inflight == 0
    assert (env.now, env._seq) == (190000000, 12748)


def test_a_crash_between_an_atomics_translation_and_its_rmw_skips_it():
    """The crash lands while the atomic's TLB miss fetches the page's
    bucket: the word is not changed and nothing is answered."""
    env, params, topology, board, collector = make_wired_board()
    va = alloc_va(env, topology, params, board, collector)
    _arrive(env, board, 0, 610, PacketType.WRITE, va, 8, b"\x07" * 8)
    env.run(until=env.now + 10 ** 7)
    board.tlb.flush()
    before, operations = len(collector.packets), board.atomic_unit.operations
    _arrive(env, board, 0, 611, PacketType.ATOMIC, va,
            payload=AtomicOp("faa", value=1))
    # Ingest and the fixed stages take 64 ns, the bucket fetch 304 more.
    env.schedule_callback(200, board.crash)
    env.schedule_callback(1_000, board.restart)
    env.run(until=env.now + 10 ** 7)
    assert len(collector.packets) == before
    assert board.atomic_unit.operations == operations
    assert board.responses_discarded == 1 and board._inflight == 0
    _arrive(env, board, 0, 612, PacketType.READ, va, 8)
    env.run(until=env.now + 10 ** 7)
    assert _read_back(collector, 612) == b"\x07" * 8
    assert (env.now, env._seq) == (130000000, 8699)


BATCH_ANSWERS = [
    (620, 0, 2, 2048, "invalid_va", 1505770200,
     ("ok", "ok", "ok", "invalid_va"), None, 110000736),
    (620, 1, 2, 2048, "invalid_va", 222252368, None, None, 110000736),
    (622, 0, 2, 2048, "invalid_va", 1505770200,
     ("ok", "ok", "ok", "invalid_va"), None, 130000000),
    (622, 1, 2, 2048, "invalid_va", 222252368, None, None, 130000000),
]


def test_a_write_bearing_batch_and_its_retry_answer_alike():
    """A frame that writes and reads 2 KB, more than the MTU, answered in
    two fragments; its retry replays them though the memory changed."""
    env, params, topology, board, collector = make_wired_board()
    va = alloc_va(env, topology, params, board, collector)
    _arrive(env, board, 0, 619, PacketType.WRITE, va + 4096, 1024,
            bytes(range(256)) * 4)
    env.run(until=env.now + 10 ** 7)
    subs = (BatchSubOp(PacketType.WRITE, va, 16, b"batched-write!!!"),
            BatchSubOp(PacketType.READ, va + 4096, 1024),
            BatchSubOp(PacketType.READ, va + 8, 1024),
            BatchSubOp(PacketType.READ, 123 * PAGE, 8))
    wire = params.network.header_bytes + 16 + len(subs) * (
        params.network.subop_header_bytes)
    for request_id, retry_of in ((620, None), (622, 620)):
        header = ClioHeader("cn0", "mn0", request_id, PacketType.BATCH, 1,
                            va, len(subs), len(subs), 0, 1, retry_of)
        env.schedule_callback(0, partial(board.receive,
                                         Packet(header, subs, wire)))
        env.run(until=env.now + 10 ** 7)
        _arrive(env, board, 0, 621, PacketType.WRITE, va + 4096, 4, b"new!")
        env.run(until=env.now + 10 ** 7)
    assert _replies(collector, (620, 622)) == BATCH_ANSWERS
    assert _read_back(collector, 622) == _read_back(collector, 620)
    assert board.retry_buffer.dedup_hits == 1
    assert board._inflight == 0
    assert (env.now, env._seq) == (150000000, 10064)


ONCE_ANSWERS = [
    (630, 0, 1, 0, "ok", None, (True, PAGE, PAGE, 0, None), None, 7000),
    (631, 0, 1, 0, "ok", None, (True, PAGE, PAGE, 0, None), None, 100000000),
    (632, 0, 1, 0, "ok", None, (True, 0, None), None, 200007000),
    (633, 0, 1, 0, "ok", None, (True, 0, None), None, 300000000),
    (634, 0, 1, 0, "ok", None, (True, 1, None), None, 400000100),
    (635, 0, 1, 0, "ok", None, (True, 1, None), None, 500000000),
]


def test_retried_allocs_frees_and_offloads_replay_without_running():
    env, params, topology, board, collector = make_wired_board()
    calls = []

    def bump(ctx, args):
        calls.append(args)
        yield ctx.env.timeout(100)
        return len(calls)

    board.extend_path.register("bump", bump)
    grant = (PAGE, Permission.READ_WRITE, None)
    requests = [(630, PacketType.ALLOC, 0, grant, None),
                (631, PacketType.ALLOC, 0, grant, 630),
                (632, PacketType.FREE, None, None, None),
                (633, PacketType.FREE, None, None, 632),
                (634, PacketType.OFFLOAD, 0, ("bump", 1), None),
                (635, PacketType.OFFLOAD, 0, ("bump", 2), 634)]
    granted = None
    for request_id, kind, address, payload, retry_of in requests:
        _arrive(env, board, 0, request_id, kind,
                granted if address is None else address, payload=payload,
                retry_of=retry_of)
        env.run(until=env.now + 10 ** 8)
        if request_id == 630:
            granted = collector.packets[-1].payload.value.va
    assert _replies(collector, range(630, 636)) == ONCE_ANSWERS
    assert calls == [1] and board.slow_path.allocs == 1
    assert board.slow_path.frees == 1
    assert board.retry_buffer.dedup_hits == 3
    assert board._inflight == 0
    assert (env.now, env._seq) == (600000000, 40035)


def test_a_misaligned_atomic_is_refused_before_it_reaches_another_page():
    """An atomic word across a page boundary would reach into the next
    *physical* page, here another process's: the board refuses a word not
    aligned to its width, at once, and remembers nothing."""
    env = Environment()
    params = ClioParams.prototype()
    topology = Topology(env, params.network)
    board = CBoard(env, params, dram_capacity=256 * MB, page_size=4096)
    board.attach(topology)
    collector = Collector()
    topology.add_node("cn0", collector)
    mine = alloc_va(env, topology, params, board, collector, pid=11,
                    size=4096)
    theirs = alloc_va(env, topology, params, board, collector, pid=22,
                      size=4096)

    def arrive(request_id, kind, pid, va, size=0, payload=None):
        header = ClioHeader("cn0", "mn0", request_id, kind, pid, va, size,
                            size)
        env.schedule_callback(0, partial(board.receive,
                                         Packet(header, payload, 64 + size)))
        env.run(until=env.now + 10 ** 7)

    arrive(640, PacketType.WRITE, 11, mine, 4, b"mine")
    arrive(641, PacketType.WRITE, 22, theirs, 8, b"theirs!!")
    assert (board.page_table.lookup(22, theirs // 4096).ppn
            == board.page_table.lookup(11, mine // 4096).ppn + 1)
    remembered = len(board.retry_buffer)
    arrived = env.now
    arrive(642, PacketType.ATOMIC, 11, mine + 4092,
           payload=AtomicOp("faa", value=1 << 40))
    answer = collector.packets[-1]
    assert answer.header.request_id == 642
    assert answer.payload.status is Status.INVALID_VA
    assert answer.payload.atomic is None and answer.sent_at == arrived
    assert len(board.retry_buffer) == remembered and board._inflight == 0
    arrive(643, PacketType.READ, 22, theirs, 8)
    assert _read_back(collector, 643) == b"theirs!!"
