"""On-board DRAM model: byte-addressable content plus access timing.

The store is sparse (lazily-allocated chunks) so a simulated 2 GB--4 TB
device costs host memory proportional only to the bytes actually written.
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

    CHUNK = 1 << 16  # 64 KB backing chunks

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
        if offset + size <= self.CHUNK:     # one chunk: one slice
            chunk = self._chunks.get(chunk_idx)
            return (bytes(chunk[offset:offset + size]) if chunk is not None
                    else bytes(size))               # never written: zeros
        out = bytearray(size)
        pos = 0
        while pos < size:
            chunk_idx, offset = divmod(pa + pos, self.CHUNK)
            take = min(size - pos, self.CHUNK - offset)
            chunk = self._chunks.get(chunk_idx)
            if chunk is not None:
                out[pos:pos + take] = chunk[offset:offset + take]
            pos += take
        return bytes(out)

    def write(self, pa: int, data: bytes) -> None:
        """Store ``data`` at physical address ``pa``."""
        self._check_range(pa, len(data))
        self.writes += 1
        self.bytes_written += len(data)
        pos = 0
        size = len(data)
        while pos < size:
            chunk_idx, offset = divmod(pa + pos, self.CHUNK)
            take = min(size - pos, self.CHUNK - offset)
            chunk = self._chunks.get(chunk_idx)
            if chunk is None:
                chunk = bytearray(self.CHUNK)
                self._chunks[chunk_idx] = chunk
            chunk[offset:offset + take] = data[pos:pos + take]
            pos += take

    def zero(self, pa: int, size: int) -> None:
        """Clear a range (used when recycling freed physical pages).

        Counts as one write of ``size`` bytes but materialises nothing: a
        chunk the range covers whole is dropped (a missing chunk reads as
        zeros) and an edge chunk is cleared only if it already exists.
        """
        self._check_range(pa, size)
        self.writes += 1
        self.bytes_written += size
        pos = 0
        while pos < size:
            chunk_idx, offset = divmod(pa + pos, self.CHUNK)
            take = min(size - pos, self.CHUNK - offset)
            if take == self.CHUNK:
                self._chunks.pop(chunk_idx, None)
            elif chunk_idx in self._chunks:
                self._chunks[chunk_idx][offset:offset + take] = bytes(take)
            pos += take

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
