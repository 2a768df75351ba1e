"""Tests for the DRAM content + timing model."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.memory import DRAM
from repro.params import GBPS

MB = 1 << 20


def make_dram(capacity=16 * MB):
    return DRAM(capacity=capacity, access_ns=300, bandwidth_bps=120 * GBPS)


def test_read_unwritten_memory_is_zero():
    dram = make_dram()
    assert dram.read(0, 64) == bytes(64)


def test_write_then_read_roundtrip():
    dram = make_dram()
    dram.write(1000, b"hello world")
    assert dram.read(1000, 11) == b"hello world"


def test_write_spanning_chunks():
    dram = make_dram()
    boundary = DRAM.CHUNK - 4
    data = bytes(range(16))
    dram.write(boundary, data)
    assert dram.read(boundary, 16) == data


def test_partial_overlap_reads():
    dram = make_dram()
    dram.write(100, b"abcdef")
    assert dram.read(102, 2) == b"cd"
    assert dram.read(98, 4) == b"\x00\x00ab"


def test_zero_clears_range():
    dram = make_dram()
    dram.write(50, b"x" * 100)
    dram.zero(60, 20)
    assert dram.read(60, 20) == bytes(20)
    assert dram.read(50, 10) == b"x" * 10


def test_zero_of_never_written_page_materialises_nothing():
    """Recycling a page nobody wrote must not cost host memory: a missing
    chunk already reads as zeros."""
    dram = make_dram()
    dram.zero(4 * MB, 4 * MB)
    assert dram.resident_bytes == 0
    assert dram.read(4 * MB, 64) == bytes(64)
    dram.zero(100, 50)                          # sub-chunk, never written
    assert dram.resident_bytes == 0


def test_zero_after_writes_reads_back_zeros_and_drops_whole_chunks():
    dram = make_dram()
    base = 3 * DRAM.CHUNK
    for index in range(4):
        dram.write(base + index * DRAM.CHUNK + 7, b"dirty")
    assert dram.resident_bytes == 4 * DRAM.CHUNK
    dram.zero(base, 4 * DRAM.CHUNK)
    assert dram.resident_bytes == 0
    assert dram.read(base, 4 * DRAM.CHUNK) == bytes(4 * DRAM.CHUNK)


def test_zero_keeps_neighbours_in_partially_covered_chunks():
    dram = make_dram()
    chunk = DRAM.CHUNK
    # Three chunks written end to end; zero from mid-first to mid-third.
    dram.write(0, b"a" * chunk + b"b" * chunk + b"c" * chunk)
    dram.zero(chunk // 2, 2 * chunk)
    assert dram.read(0, chunk // 2) == b"a" * (chunk // 2)
    assert dram.read(chunk // 2, 2 * chunk) == bytes(2 * chunk)
    assert dram.read(2 * chunk + chunk // 2, chunk // 2) == b"c" * (chunk // 2)
    assert dram.resident_bytes == 2 * chunk     # middle chunk dropped whole


def test_zero_counts_as_one_write_of_its_size():
    dram = make_dram()
    dram.write(0, b"1234")
    dram.zero(0, 3 * DRAM.CHUNK)
    assert dram.writes == 2 and dram.bytes_written == 4 + 3 * DRAM.CHUNK
    assert dram.reads == 0 and dram.bytes_read == 0
    with pytest.raises(ValueError):
        dram.zero(dram.capacity - 8, 16)
    with pytest.raises(ValueError):
        dram.zero(0, 0)


def test_out_of_range_access_rejected():
    dram = make_dram(capacity=1024)
    with pytest.raises(ValueError):
        dram.read(1020, 8)
    with pytest.raises(ValueError):
        dram.write(-1, b"a")
    with pytest.raises(ValueError):
        dram.read(0, 0)


def test_access_time_has_fixed_plus_stream_parts():
    dram = make_dram()
    base = dram.access_time_ns(0)
    assert base == 300
    big = dram.access_time_ns(120 * MB // 8)  # ~1ms of streaming
    assert big > base


def test_access_time_monotonic_in_size():
    dram = make_dram()
    times = [dram.access_time_ns(size) for size in (64, 1024, 65536, MB)]
    assert times == sorted(times)


def test_counters_track_traffic():
    dram = make_dram()
    dram.write(0, b"1234")
    dram.read(0, 2)
    assert dram.writes == 1 and dram.bytes_written == 4
    assert dram.reads == 1 and dram.bytes_read == 2


def test_sparse_backing_is_lazy():
    dram = DRAM(capacity=1 << 40, access_ns=300, bandwidth_bps=120 * GBPS)
    dram.write(1 << 39, b"far away")
    assert dram.read(1 << 39, 8) == b"far away"
    assert dram.resident_bytes <= 2 * DRAM.CHUNK


def test_invalid_construction():
    with pytest.raises(ValueError):
        DRAM(0, 300, GBPS)


@given(st.integers(min_value=0, max_value=4 * MB - 256),
       st.binary(min_size=1, max_size=256))
@settings(max_examples=100)
def test_roundtrip_property(pa, data):
    dram = make_dram()
    dram.write(pa, data)
    assert dram.read(pa, len(data)) == data


#: Four pieces; addresses fall near a piece boundary as often as not.
CAPACITY = 4 * DRAM.CHUNK
near_boundary = st.builds(
    lambda index, delta: min(max(index * DRAM.CHUNK + delta, 0), CAPACITY - 1),
    st.integers(0, 4), st.integers(-8, 8))


@given(st.lists(st.tuples(
    st.sampled_from(("write", "read", "zero")),
    st.one_of(near_boundary, st.integers(0, CAPACITY - 1)),
    st.one_of(st.integers(1, 16), st.integers(1, 3 * DRAM.CHUNK)),
    st.integers(0, 255)), max_size=30))
@settings(max_examples=150)
def test_zero_equals_writing_zero_bytes(ops):
    """Writes, reads and zeroes that straddle pieces, against a flat
    ``bytearray``: a zero reads back and counts as the ``write(pa,
    bytes(size))`` it replaced, and the pieces resident are exactly those
    written into and not since zeroed whole."""
    dram, model = make_dram(CAPACITY), bytearray(CAPACITY)
    pattern = bytes(range(256)) * (3 * DRAM.CHUNK // 256 + 2)
    piece, written, writes, bytes_written = DRAM.CHUNK, set(), 0, 0
    for op, pa, size, fill in ops:
        size = min(size, CAPACITY - pa)
        if op == "read":
            assert dram.read(pa, size) == model[pa:pa + size]
            continue
        writes, bytes_written = writes + 1, bytes_written + size
        if op == "write":
            data = pattern[fill:fill + size]
            dram.write(pa, data)
            model[pa:pa + size] = data
            written.update(range(pa // piece, (pa + size - 1) // piece + 1))
        else:
            dram.zero(pa, size)
            model[pa:pa + size] = bytes(size)
            written.difference_update(
                range(-(-pa // piece), (pa + size) // piece))
        assert dram.resident_bytes == len(written) * piece
    assert dram.read(0, CAPACITY) == model
    assert (dram.writes, dram.bytes_written) == (writes, bytes_written)


def test_first_touches_cost_one_piece_each():
    """The churn's first touch writes one byte per 64 KB page: each costs
    one 4 KB piece of host memory, not a 64 KB chunk."""
    dram = make_dram(capacity=64 * MB)
    touches = 100
    for page in range(touches):
        dram.write(page * 64 * 1024 + page % 7, bytes([page + 1]))
    assert dram.resident_bytes == touches * 4096
    dram.zero(0, 64 * 1024)                 # free the first 64 KB page
    assert dram.resident_bytes == (touches - 1) * 4096
