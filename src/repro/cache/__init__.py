"""repro.cache — CN-side coherent hot-page cache (MIND-style).

An opt-in CLib-local DRAM cache of hot remote pages, line-granularity,
kept coherent by a directory co-located with the ToR switch (the
GlobalController's vantage point): single-writer / multi-reader with
recall ("drop your copy, flushing first if dirty") and downgrade
("flush and fall back to shared") messages delivered over the simulated
fabric with real latency, loss, and retransmission.

None of this exists unless the cluster is built with the layer
(``ClioCluster(layers=("caching",))``, configured by
:class:`~repro.params.CacheParams`): a cache-off run schedules zero extra
events and stays bit-identical to the pre-cache goldens.

The protocol itself is two tables in :mod:`repro.cache.protocol`, which
docs/caching.md renders and explains.
"""

from repro.cache.directory import CacheDirectory, CacheReq, InvalMsg
from repro.cache.pagecache import PageCache

__all__ = ["CacheDirectory", "CacheReq", "InvalMsg", "PageCache"]
