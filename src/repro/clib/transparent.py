"""Transparent remote-memory interface (paper section 3.3).

The paper's CLib API is explicit, but it notes that the same CBoard
supports transparent usage unchanged: "the CN kernel or hardware captures
misses in CN's local memory and then calls Clio's APIs to fulfill the
misses" (LegoOS pComponent style), or a runtime like AIFM calls the APIs
under its own abstractions.

:class:`TransparentMemory` is that layer in library form: a bounded local
page cache over one RAS.  ``read``/``write`` hit local memory when the
page is cached; a miss fetches the remote page via ``rread`` (and evicts
an LRU victim, writing it back if dirty).  ``flush`` gives the
write-back durability point.

Caching granularity is a *cache page* (default 64 KB), independent of the
MN's translation page size — mirroring how a CN-side cache would track
far smaller units than the MN's 4 MB huge pages.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Optional

from repro.clib.client import ClioThread
from repro.params import KB

#: CN-side cost of a local cache hit (a memcpy within local DRAM).
LOCAL_HIT_NS = 80


@dataclass
class _CachePage:
    data: bytearray
    dirty: bool = False


class TransparentMemory:
    """A local write-back page cache in front of one remote allocation."""

    def __init__(self, thread: ClioThread, size: int,
                 cache_pages: int = 64, cache_page_size: int = 64 * KB):
        if size <= 0:
            raise ValueError(f"size must be positive, got {size}")
        if cache_pages <= 0:
            raise ValueError(f"cache_pages must be positive, got {cache_pages}")
        if cache_page_size <= 0 or cache_page_size & (cache_page_size - 1):
            raise ValueError("cache_page_size must be a power of two")
        self.thread = thread
        self.env = thread.env
        self.size = size
        self.cache_pages = cache_pages
        self.cache_page_size = cache_page_size
        self._base_va: Optional[int] = None
        self._cache: OrderedDict[int, _CachePage] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.writebacks = 0

    # -- lifecycle -----------------------------------------------------------------

    def attach(self):
        """Process-generator: allocate the backing remote region."""
        if self._base_va is not None:
            raise RuntimeError("already attached")
        self._base_va = yield from self.thread.ralloc(self.size)
        return self._base_va

    def detach(self):
        """Process-generator: flush dirty pages and free the region."""
        yield from self.flush()
        yield from self.thread.rfree(self._base_va)
        self._base_va = None
        self._cache.clear()

    # -- cache mechanics ---------------------------------------------------------------

    def _check(self, addr: int, size: int) -> None:
        if self._base_va is None:
            raise RuntimeError("attach() first")
        if size <= 0:
            raise ValueError(f"size must be positive, got {size}")
        if addr < 0 or addr + size > self.size:
            raise ValueError(
                f"access [{addr}, {addr + size}) outside region of {self.size}")

    def _page_of(self, addr: int) -> int:
        return addr // self.cache_page_size

    def _ensure_cached(self, page: int):
        """Process-generator: fault the page into the local cache."""
        cached = self._cache.get(page)
        if cached is not None:
            self._cache.move_to_end(page)
            self.hits += 1
            return cached
        self.misses += 1
        if len(self._cache) >= self.cache_pages:
            yield from self._evict_one()
        offset = page * self.cache_page_size
        length = min(self.cache_page_size, self.size - offset)
        data = yield from self.thread.rread(self._base_va + offset, length)
        cached = _CachePage(data=bytearray(data))
        self._cache[page] = cached
        return cached

    def _evict_one(self):
        victim_page, victim = self._cache.popitem(last=False)
        if victim.dirty:
            self.writebacks += 1
            yield from self.thread.rwrite(
                self._base_va + victim_page * self.cache_page_size,
                bytes(victim.data))

    # -- the transparent API -----------------------------------------------------------

    def read(self, addr: int, size: int):
        """Process-generator: read bytes; remote fetch only on a miss."""
        self._check(addr, size)
        out = bytearray()
        position = addr
        remaining = size
        while remaining > 0:
            page = self._page_of(position)
            page_offset = position - page * self.cache_page_size
            take = min(remaining, self.cache_page_size - page_offset)
            cached = yield from self._ensure_cached(page)
            yield self.env.timeout(LOCAL_HIT_NS)
            out += cached.data[page_offset:page_offset + take]
            position += take
            remaining -= take
        return bytes(out)

    def write(self, addr: int, data: bytes):
        """Process-generator: write bytes into the cache (write-back)."""
        self._check(addr, len(data))
        position = addr
        offset = 0
        while offset < len(data):
            page = self._page_of(position)
            page_offset = position - page * self.cache_page_size
            take = min(len(data) - offset,
                       self.cache_page_size - page_offset)
            cached = yield from self._ensure_cached(page)
            yield self.env.timeout(LOCAL_HIT_NS)
            cached.data[page_offset:page_offset + take] = \
                data[offset:offset + take]
            cached.dirty = True
            position += take
            offset += take

    def flush(self):
        """Process-generator: write every dirty cached page back to the MN."""
        for page, cached in list(self._cache.items()):
            if not cached.dirty:
                continue
            self.writebacks += 1
            yield from self.thread.rwrite(
                self._base_va + page * self.cache_page_size,
                bytes(cached.data))
            cached.dirty = False

    # -- diagnostics -----------------------------------------------------------------------

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    @property
    def cached_bytes(self) -> int:
        return sum(len(page.data) for page in self._cache.values())
