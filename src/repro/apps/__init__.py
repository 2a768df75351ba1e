"""Applications on disaggregated memory.

The paper's three (section 6):

* :mod:`repro.apps.image_compression` — a FaaS-style utility using only
  the basic APIs (one allocation per client for isolation, R5);
* :mod:`repro.apps.radix_tree` — a pointer-linked radix tree, searched on
  Clio via an extended pointer-chasing offload (one RTT per chase);
* :mod:`repro.apps.kv_store` — Clio-KV, a key-value store running *at*
  the MN as a computation offload, with atomic writes and read-committed
  reads.

The first two are written once over the four comparison verbs
(:mod:`repro.baselines.api`), so Figures 15 and 16 run the same code on
Clio (:class:`~repro.baselines.api.ClioMemory`) and on RDMA;
:class:`ClioRadixTree` adds only the offloaded search.
"""

from repro.apps.image_compression import (
    ImageCompressionClient,
    rle_compress,
    rle_decompress,
    synthetic_image,
)
from repro.apps.kv_store import ClioKV, register_kv_offload
from repro.apps.radix_tree import (
    NODE_BYTES,
    ClioRadixTree,
    RadixTree,
    register_chase_offload,
)

__all__ = [
    "ClioKV",
    "ClioRadixTree",
    "ImageCompressionClient",
    "NODE_BYTES",
    "RadixTree",
    "register_chase_offload",
    "register_kv_offload",
    "rle_compress",
    "rle_decompress",
    "synthetic_image",
]
