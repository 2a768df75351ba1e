"""Integration tests for the assembled CBoard (packet path + local path)."""

import pytest

from repro.core.addr import AccessType, Permission
from repro.core.cboard import CBoard, ResponseBody
from repro.core.pipeline import Status
from repro.core.sync import AtomicOp
from repro.net.packet import ClioHeader, Packet, PacketType
from repro.net.switch import Topology
from repro.params import ClioParams
from repro.sim import Environment

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
    stats = board.stats()
    for key in ("requests_served", "tlb_hit_rate", "page_faults",
                "memory_utilization", "pt_entries", "alive", "crashes",
                "restarts", "packets_dropped_dead", "responses_discarded"):
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
