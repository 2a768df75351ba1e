"""Tests for packets, headers, and fragmentation."""

from dataclasses import fields

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import ClioCluster
from repro.core.cboard import ResponseBody, _WriteProgress
from repro.core.pipeline import FastPathResult
from repro.core.va_allocator import Allocation, AllocationOutcome
from repro.net.packet import ClioHeader, Packet, PacketType, fragment_payload
from repro.params import ClioParams
from repro.transport.clib_transport import RequestOutcome

MB = 1 << 20

#: The hot path builds these records positionally, so a reordered field
#: would swap values silently at every call site: it fails here by name.
RECORD_FIELDS = {
    ClioHeader: ["src", "dst", "request_id", "packet_type", "pid", "va",
                 "size", "total_size", "fragment", "fragments", "retry_of"],
    Packet: ["header", "payload", "wire_bytes", "corrupt", "sent_at"],
    ResponseBody: ["status", "data", "value", "atomic", "breakdown"],
    FastPathResult: ["status", "data", "faulted", "tlb_missed", "breakdown",
                     "pa"],
    RequestOutcome: ["body", "data", "rtt_ns", "retries", "request_id"],
    _WriteProgress: ["remaining", "born", "status", "breakdown"],
    Allocation: ["va", "size", "permission"],
    AllocationOutcome: ["allocation", "retries"],
}


def test_fragment_small_request_single_packet():
    assert fragment_payload(100, 1500) == [(0, 100)]


def test_fragment_exact_mtu():
    assert fragment_payload(1500, 1500) == [(0, 1500)]


def test_fragment_large_request():
    fragments = fragment_payload(4000, 1500)
    assert fragments == [(0, 1500), (1500, 1500), (3000, 1000)]


def test_fragment_zero_size_control_packet():
    assert fragment_payload(0, 1500) == [(0, 0)]


def test_fragment_rejects_bad_args():
    with pytest.raises(ValueError):
        fragment_payload(-1, 1500)
    with pytest.raises(ValueError):
        fragment_payload(100, 0)


def test_header_is_self_describing():
    header = ClioHeader(src="cn0", dst="mn0", request_id=7,
                        packet_type=PacketType.WRITE, pid=3, va=4096,
                        size=100, total_size=3000, fragment=2, fragments=3)
    # Everything needed to process the fragment independently is present.
    assert header.va == 4096 and header.pid == 3
    assert header.fragment == 2 and header.fragments == 3


def test_packet_repr_mentions_type_and_route():
    header = ClioHeader(src="cn0", dst="mn0", request_id=1,
                        packet_type=PacketType.READ)
    text = repr(Packet(header=header, wire_bytes=64))
    assert "read" in text and "cn0->mn0" in text


@pytest.mark.parametrize("record", RECORD_FIELDS, ids=lambda r: r.__name__)
def test_positionally_built_records_keep_their_field_order(record):
    assert [f.name for f in fields(record)] == RECORD_FIELDS[record]


def test_a_retry_builds_a_new_header_and_leaves_the_first_alone():
    """The MN never sees the first attempt of a read; the retry goes out
    under a fresh request ID with ``retry_of`` set, in a header of its
    own, and the first attempt's header still reads ``retry_of=None``."""
    cluster = ClioCluster(params=ClioParams.prototype(), mn_capacity=512 * MB)
    env = cluster.env
    thread = cluster.cn(0).process("mn0").thread()
    downlink = cluster.topology._downlinks["mn0"]
    real = downlink.deliver
    requests = []

    def lose_the_first(packet):
        if packet.header.packet_type is PacketType.READ:
            requests.append(packet.header)
            if len(requests) == 1:
                return
        real(packet)

    def app():
        va = yield from thread.ralloc(4 * MB)
        yield from thread.rwrite(va, b"r" * 64)
        downlink.deliver = lose_the_first
        return (yield from thread.rread(va, 64))

    assert env.run(until=env.process(app())) == b"r" * 64
    first, retry = requests
    assert retry is not first
    assert first.retry_of is None
    assert retry.retry_of == first.request_id != retry.request_id
    assert cluster.cn(0).transport.total_retries == 1


@given(st.integers(min_value=1, max_value=100_000),
       st.integers(min_value=16, max_value=9000))
@settings(max_examples=200, deadline=None)
def test_fragments_cover_payload_exactly(total, mtu):
    fragments = fragment_payload(total, mtu)
    assert fragments[0][0] == 0
    covered = 0
    for offset, size in fragments:
        assert offset == covered
        assert 0 < size <= mtu
        covered += size
    assert covered == total
