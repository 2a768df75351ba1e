"""Tests for the Match-and-Action Table: Figure 2's type -> path table."""

from repro.cluster import ClioCluster
from repro.core.addr import AccessType
from repro.core.mat import PATHS, Path
from repro.net.packet import ClioHeader, Packet, PacketType

MB = 1 << 20

#: The types a board does not serve: replies and the cache protocol's
#: messages, which travel between CNs and the cache directory.
UNSERVED = {PacketType.RESPONSE, PacketType.NACK, PacketType.CACHE_REQ,
            PacketType.CACHE_INVAL}


def test_default_rules_route_three_paths():
    assert {packet_type for packet_type, path in PATHS.items()
            if path is Path.FAST} == {
        PacketType.READ, PacketType.WRITE, PacketType.ATOMIC,
        PacketType.FENCE, PacketType.BATCH}
    assert {packet_type for packet_type, path in PATHS.items()
            if path is Path.SLOW} == {PacketType.ALLOC, PacketType.FREE}
    assert {packet_type for packet_type, path in PATHS.items()
            if path is Path.EXTEND} == {PacketType.OFFLOAD}


def test_unmatched_types_drop():
    assert set(PacketType) - set(PATHS) == UNSERVED


def _packet(packet_type, request_id):
    return Packet(ClioHeader("cn0", "mn0", request_id, packet_type, 1))


def _spied_board(run_handlers):
    """A live board that logs each handler it enters and each send."""
    board = ClioCluster(mn_capacity=256 * MB).mn
    routed, sent = [], []
    handle, send = board._handle, board._send

    def spy_handle(packet, path, epoch, start):
        routed.append((packet.header.packet_type, path))
        if run_handlers:
            yield from handle(packet, path, epoch, start)

    def spy_send(*args, **kwargs):
        sent.append(args)
        return send(*args, **kwargs)

    board._handle, board._send = spy_handle, spy_send
    return board, routed, sent


def test_board_sends_every_served_type_down_its_path():
    """Every other served type takes a handler; a READ and a WRITE skip
    it and go from the port to the fast path."""
    board, routed, _sent = _spied_board(run_handlers=False)
    served, serve = [], board.fast_path.serve

    def spy_serve(pid, access, *args):
        served.append(access)
        return serve(pid, access, *args)

    board.fast_path.serve = spy_serve
    handled = [(packet_type, path) for packet_type, path in PATHS.items()
               if packet_type not in (PacketType.READ, PacketType.WRITE)]
    for request_id, (packet_type, _path) in enumerate(handled):
        board.receive(_packet(packet_type, request_id))
    assert served == []
    for request_id, packet_type, payload in (
            (100, PacketType.READ, None), (101, PacketType.WRITE, b"w" * 64)):
        board.receive(Packet(ClioHeader("cn0", "mn0", request_id, packet_type,
                                        1, 0, 64, 64), payload, 64 + 64))
    board.env.run(until=board.env.now + 100_000)
    assert routed == handled
    assert served == [AccessType.READ, AccessType.WRITE]


def test_board_drops_every_unserved_type():
    """No handler runs, nothing is sent back, nothing counts as served."""
    board, routed, sent = _spied_board(run_handlers=True)
    served = board.requests_served
    for request_id, packet_type in enumerate(sorted(UNSERVED, key=str)):
        board.receive(_packet(packet_type, request_id))
    board.env.run(until=board.env.now + 100_000)
    assert routed == [] and sent == []
    assert board.requests_served == served
