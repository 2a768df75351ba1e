"""On-board DRAM model: byte-addressable content plus access timing.

The store is sparse.  Content lives in 4 KB pieces (``DRAM.CHUNK``: the
host's page, and the smallest of the board's ``PAGE_SIZES``), each made on
the first write into it and dropped when a freed page is zeroed.  So a
simulated 2 GB--4 TB device costs host memory for the 4 KB pieces a run
has written into and not yet freed: one written byte costs one piece, and
a freed board page of 4 KB or more drops whole pieces.
Timing follows a simple latency + bandwidth model: every access pays the
controller's fixed access latency, plus serialization of the payload at
the DRAM stream bandwidth.
"""

from __future__ import annotations

from repro.params import SEC


class DRAM:
    """Byte-addressable memory with deterministic access timing.

    ``access_ns`` is the fixed per-access latency of the (slow, on the FPGA
    prototype) board memory controller; ``bandwidth_bps`` bounds streaming
    throughput for large transfers.
    """

    CHUNK = 1 << 12  # 4 KB backing pieces

    def __init__(self, capacity: int, access_ns: int, bandwidth_bps: int):
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.capacity = capacity
        self.access_ns = access_ns
        self.bandwidth_bps = bandwidth_bps
        self._chunks: dict[int, bytearray] = {}
        self.reads = 0
        self.writes = 0
        self.bytes_read = 0
        self.bytes_written = 0

    # -- content ------------------------------------------------------------

    def _check_range(self, pa: int, size: int) -> None:
        if size <= 0:
            raise ValueError(f"size must be positive, got {size}")
        if pa < 0 or pa + size > self.capacity:
            raise ValueError(
                f"access [{pa}, {pa + size}) outside capacity {self.capacity}")

    def read(self, pa: int, size: int) -> bytes:
        """Return ``size`` bytes at physical address ``pa`` (zero-filled)."""
        self._check_range(pa, size)
        self.reads += 1
        self.bytes_read += size
        chunk_idx, offset = divmod(pa, self.CHUNK)
        if offset + size <= self.CHUNK:     # one piece: one slice
            chunk = self._chunks.get(chunk_idx)
            return (bytes(chunk[offset:offset + size]) if chunk is not None
                    else bytes(size))               # never written: zeros
        out = bytearray(size)
        pos = 0
        while pos < size:
            take = min(size - pos, self.CHUNK - offset)
            chunk = self._chunks.get(chunk_idx)
            if chunk is not None:
                out[pos:pos + take] = chunk[offset:offset + take]
            chunk_idx, offset, pos = chunk_idx + 1, 0, pos + take
        return bytes(out)

    def write(self, pa: int, data: bytes) -> None:
        """Store ``data`` at physical address ``pa``."""
        size = len(data)
        self._check_range(pa, size)
        self.writes += 1
        self.bytes_written += size
        chunk_idx, offset = divmod(pa, self.CHUNK)
        if offset + size <= self.CHUNK:     # one piece: one slice
            chunk = self._chunks.get(chunk_idx)
            if chunk is None:
                chunk = self._chunks[chunk_idx] = bytearray(self.CHUNK)
            chunk[offset:offset + size] = data
            return
        pos = 0
        while pos < size:
            take = min(size - pos, self.CHUNK - offset)
            chunk = self._chunks.get(chunk_idx)
            if chunk is None:
                chunk = self._chunks[chunk_idx] = bytearray(self.CHUNK)
            chunk[offset:offset + take] = data[pos:pos + take]
            chunk_idx, offset, pos = chunk_idx + 1, 0, pos + take

    def zero(self, pa: int, size: int) -> None:
        """Clear a range (used when recycling freed physical pages).

        Counts as one write of ``size`` bytes but materialises nothing: a
        piece the range covers whole is dropped (a missing piece reads as
        zeros) and an edge piece is cleared only if it already exists.
        """
        self._check_range(pa, size)
        self.writes += 1
        self.bytes_written += size
        chunks, piece, end = self._chunks, self.CHUNK, pa + size
        whole = range(-(-pa // piece), end // piece)
        for chunk_idx in {pa // piece, (end - 1) // piece}:
            chunk = chunks.get(chunk_idx)
            if chunk is not None and chunk_idx not in whole:
                base = chunk_idx * piece
                low, high = max(pa - base, 0), min(end - base, piece)
                chunk[low:high] = bytes(high - low)
        for chunk_idx in whole:
            chunks.pop(chunk_idx, None)

    # -- timing ---------------------------------------------------------------

    def access_time_ns(self, size: int) -> int:
        """Latency of one access touching ``size`` payload bytes."""
        if size < 0:
            raise ValueError(f"size must be non-negative, got {size}")
        stream = (size * 8 * SEC) // self.bandwidth_bps
        return self.access_ns + stream

    @property
    def resident_bytes(self) -> int:
        """Host-side memory actually backing the store (diagnostic)."""
        return len(self._chunks) * self.CHUNK
