"""Radix tree with a pointer-chasing offload (paper section 6, Figure 16).

The tree indexes byte-string keys.  Each level is a **linked list** of
sibling nodes (one per distinct byte at that depth); matching a byte means
walking the sibling list, and descending means following the child
pointer.  :class:`RadixTree` is written once over the four comparison
verbs (:mod:`repro.baselines.api`), so it runs on any backend: the client
walks node by node, one round trip per *node*.  :class:`ClioRadixTree`
runs the sibling walk *at the MN* through an extended pointer-chasing API
deployed in the FPGA, which compares a value at each chased node and
returns on match or null — one network round trip per level.

All nodes live in the tree's one allocation; a pointer is a node's offset
in it, and offset 0 (never a node) is null.  Node layout (32 bytes, all
fields little-endian u64):

    +0   key byte of this node (low 8 bits used)
    +8   child pointer (offset of first node of the next level; 0 = leaf)
    +16  sibling pointer (offset of next node in this level's list; 0 = end)
    +24  value (payload for leaves; 0 otherwise)
"""

from __future__ import annotations

from repro.baselines.api import ClioMemory
from repro.clib.client import ClioThread
from repro.core.extend import ExtendPath, OffloadContext

NODE_BYTES = 32

#: FPGA cycles per chase step (compare + pointer follow), beyond the reads.
CHASE_STEP_CYCLES = 4


def pack_node(key_byte: int, child: int, sibling: int, value: int) -> bytes:
    return (key_byte.to_bytes(8, "little") + child.to_bytes(8, "little")
            + sibling.to_bytes(8, "little") + value.to_bytes(8, "little"))


def unpack_node(blob: bytes) -> tuple[int, int, int, int]:
    if len(blob) != NODE_BYTES:
        raise ValueError(f"node blob must be {NODE_BYTES} bytes")
    return (int.from_bytes(blob[0:8], "little"),
            int.from_bytes(blob[8:16], "little"),
            int.from_bytes(blob[16:24], "little"),
            int.from_bytes(blob[24:32], "little"))


def chase_offload(ctx: OffloadContext, args, caller_pid: int):
    """Extended pointer-chasing API (deployed in FPGA at the MN).

    ``args`` = (region_va, start, wanted_byte).  Walks the sibling list
    from node offset ``start`` of the tree at ``region_va`` *in the
    caller's RAS* (the tree was built by the client with ordinary rwrite),
    comparing each node's key byte; returns the matching node's
    (child, value) or (0, 0) when the list ends.
    """
    base, node, wanted = args
    while node != 0:
        blob = yield from ctx.read(base + node, NODE_BYTES, pid=caller_pid)
        key_byte, child, sibling, value = unpack_node(blob)
        yield from ctx._compute(CHASE_STEP_CYCLES)
        if key_byte == wanted:
            return child, value
        node = sibling
    return 0, 0


def register_chase_offload(extend_path: ExtendPath,
                           name: str = "radix-chase") -> None:
    """Deploy the pointer-chasing offload on a CBoard."""
    extend_path.register(name, chase_offload, on_fpga=True)


class RadixTree:
    """The radix tree over any backend's four verbs: inserts and searches
    from the client, one round trip per node visited."""

    def __init__(self, memory):
        self.memory = memory
        self.region = None
        self._capacity = 0
        self._used = NODE_BYTES     # offset 0 stays "null"
        self._root_head = 0         # offset of the first node at depth 0
        self.key_count = 0

    def setup(self, capacity_nodes: int = 1 << 16):
        """Process-generator: allocate the node region."""
        self._capacity = capacity_nodes * NODE_BYTES
        self.region = yield from self.memory.alloc(self._capacity)

    def _take(self) -> int:
        if self._used + NODE_BYTES > self._capacity:
            raise MemoryError("radix tree region exhausted")
        offset = self._used
        self._used += NODE_BYTES
        return offset

    def _read_node(self, offset: int):
        blob, _ = yield from self.memory.load(self.region, offset, NODE_BYTES)
        return unpack_node(blob)

    def _write_node(self, offset: int, key_byte: int, child: int,
                    sibling: int, value: int):
        yield from self.memory.store(self.region, offset,
                                     pack_node(key_byte, child, sibling, value))

    def insert(self, key: bytes, value: int):
        """Process-generator: insert key -> value (value must be != 0)."""
        if self.region is None:
            raise RuntimeError("call setup() first")
        if value == 0:
            raise ValueError("value 0 is reserved for 'absent'")
        if not key:
            raise ValueError("empty keys unsupported")
        head = self._root_head
        parent = None               # node whose child pointer leads to head
        for depth, byte in enumerate(key):
            found = 0
            last = 0
            offset = head
            while offset != 0:
                key_byte, child, sibling, node_value = yield from self._read_node(offset)
                if key_byte == byte:
                    found = offset
                    break
                last = offset
                offset = sibling
            if found == 0:
                new_offset = self._take()
                is_leaf = depth == len(key) - 1
                yield from self._write_node(new_offset, byte, 0, 0,
                                            value if is_leaf else 0)
                if last:
                    # Append to this level's sibling list.
                    k, c, _, v = yield from self._read_node(last)
                    yield from self._write_node(last, k, c, new_offset, v)
                elif parent is not None:
                    k, _, s, v = yield from self._read_node(parent)
                    yield from self._write_node(parent, k, new_offset, s, v)
                else:
                    self._root_head = new_offset
                found = new_offset
            key_byte, child, sibling, node_value = yield from self._read_node(found)
            if depth == len(key) - 1:
                if node_value != value:
                    yield from self._write_node(found, key_byte, child,
                                                sibling, value)
                self.key_count += 1
                return
            parent = found
            head = child

    def search(self, key: bytes):
        """Process-generator: the value stored at ``key``, or None."""
        head, value = self._root_head, 0
        for byte in key:
            if head == 0:
                return None
            head, value = yield from self._find(head, byte)
            if head == 0 and value == 0:
                return None
        return value if value != 0 else None

    def _find(self, head: int, byte: int):
        """Process-generator: walk one level's sibling list from ``head``
        for ``byte``; returns the match's (child, value), or (0, 0)."""
        offset = head
        while offset != 0:
            key_byte, child, sibling, value = yield from self._read_node(offset)
            if key_byte == byte:
                return child, value
            offset = sibling
        return 0, 0


class ClioRadixTree(RadixTree):
    """The tree on Clio, each level's sibling walk offloaded to the MN:
    one offload invocation (one RTT) per key byte, the Clio advantage
    Figure 16 measures."""

    def __init__(self, thread: ClioThread, offload_name: str = "radix-chase"):
        super().__init__(ClioMemory(thread))
        self.offload_name = offload_name

    def _find(self, head: int, byte: int):
        return (yield from self.memory.thread.invoke_offload(
            self.offload_name, (self.region, head, byte)))
