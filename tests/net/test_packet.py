"""Tests for packets, headers, and fragmentation."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.packet import ClioHeader, Packet, PacketType, fragment_payload


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
