"""FaaS-style image compression utility (paper section 6, Figure 15).

Each client (think: one user's photo collection) keeps its originals and
their compressed copies in one allocation of its own, so collections are
isolated from each other — on Clio this is free (a PID per client), while
on RDMA every client needs its own MR (and QP) for protection, which is
exactly what makes RDMA's Figure 15 curve grow with the client count.
The client is written once over the four comparison verbs
(:mod:`repro.baselines.api`), so the same code runs on every backend.

The compressor is a real byte-level RLE codec, and images are synthetic
grayscale rasters with run structure, so the workload moves real bytes
through the remote-memory path and verifies them.
"""

from __future__ import annotations

from repro.sim.rng import RandomStream

#: CN-side compute cost of the codec, per input byte (a few cycles/byte).
COMPRESS_NS_PER_BYTE = 1.2
DECOMPRESS_NS_PER_BYTE = 0.8


def synthetic_image(rng: RandomStream, side: int = 256) -> bytes:
    """A side x side grayscale raster with run structure (compressible)."""
    total = side * side
    out = bytearray()
    while len(out) < total:
        run = min(rng.uniform_int(4, 64), total - len(out))
        out.extend(bytes([rng.uniform_int(0, 255)]) * run)
    return bytes(out)


def rle_compress(data: bytes) -> bytes:
    """Byte-level run-length encoding: (count, value) pairs, count <= 255."""
    if not data:
        return b""
    out = bytearray()
    current = data[0]
    count = 1
    for byte in data[1:]:
        if byte == current and count < 255:
            count += 1
        else:
            out.append(count)
            out.append(current)
            current = byte
            count = 1
    out.append(count)
    out.append(current)
    return bytes(out)


def rle_decompress(data: bytes) -> bytes:
    """Inverse of :func:`rle_compress`."""
    if len(data) % 2:
        raise ValueError("RLE stream must have even length")
    out = bytearray()
    for index in range(0, len(data), 2):
        out.extend(bytes([data[index + 1]]) * data[index])
    return bytes(out)


class ImageCompressionClient:
    """One client of the utility: its slots of originals, then its slots of
    compressed copies, in one allocation on ``memory`` (any backend)."""

    def __init__(self, memory, rng: RandomStream, image_side: int = 256,
                 slots: int = 16):
        self.memory = memory
        self.env = memory.env
        self.rng = rng
        self.image_side = image_side
        self.image_bytes = image_side * image_side
        self.slots = slots
        # Compressed slots get 2x room (RLE can expand adversarial input).
        self.compressed_slot = 2 * self.image_bytes
        self.region = None
        self.images_processed = 0

    def setup(self):
        """Process-generator: allocate the client's region and upload the
        originals."""
        self.region = yield from self.memory.alloc(
            self.slots * (self.image_bytes + self.compressed_slot))
        for slot in range(self.slots):
            image = synthetic_image(self.rng, self.image_side)
            yield from self.memory.store(self.region,
                                         slot * self.image_bytes, image)

    def _compressed_offset(self, slot: int) -> int:
        return self.slots * self.image_bytes + slot * self.compressed_slot

    def compress_one(self, slot: int):
        """Process-generator: load original -> compress -> store back.

        Returns the compressed size.
        """
        image, _ = yield from self.memory.load(
            self.region, slot * self.image_bytes, self.image_bytes)
        yield self.env.timeout(int(len(image) * COMPRESS_NS_PER_BYTE))
        compressed = rle_compress(image)
        header = len(compressed).to_bytes(4, "little")
        yield from self.memory.store(self.region,
                                     self._compressed_offset(slot),
                                     header + compressed)
        self.images_processed += 1
        return len(compressed)

    def decompress_one(self, slot: int):
        """Process-generator: load compressed, decode.

        Returns the decoded image.
        """
        offset = self._compressed_offset(slot)
        header, _ = yield from self.memory.load(self.region, offset, 4)
        length = int.from_bytes(header, "little")
        compressed, _ = yield from self.memory.load(self.region, offset + 4,
                                                    length)
        yield self.env.timeout(int(self.image_bytes * DECOMPRESS_NS_PER_BYTE))
        self.images_processed += 1
        return rle_decompress(compressed)

    def run_workload(self, operations: int):
        """Process-generator: alternate compress/decompress over the slots.

        Returns total runtime in ns.
        """
        start = self.env.now
        for index in range(operations):
            slot = index % self.slots
            yield from self.compress_one(slot)
            yield from self.decompress_one(slot)
        return self.env.now - start
