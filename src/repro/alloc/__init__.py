"""Pluggable allocation strategies for the ARM slow path (``repro.alloc``).

The paper's allocators are intentionally simple: a FIFO free-list for
physical pages and a linear first-fit gap walk for virtual ranges.  This
package keeps those as the defaults — bit-identical to the original
implementations — and adds swappable alternatives: a board's
``pa_allocator`` is a :class:`PAStrategy` (built by
:func:`make_pa_strategy` from ``AllocParams``), and its ``VAAllocator``
takes a :class:`VAPolicy`:

* :class:`FreeListStrategy` — the paper's FIFO free-list (default).
* :class:`ArenaStrategy` — jemalloc-style per-process arenas that batch
  global-pool crossings (the metric the ARM slow path pays for).

VA-side search policies live in :mod:`repro.alloc.va_policies`:
first-fit / next-fit / best-fit, plus a retry-aware candidate jumper
that skips buckets it has already seen overflow.
"""

from repro.alloc.pa_strategies import (
    PA_STRATEGIES,
    ArenaStrategy,
    DoubleFreeError,
    FreeListStrategy,
    OutOfMemoryError,
    PAStrategy,
    make_pa_strategy,
)
from repro.alloc.va_policies import (
    VA_POLICIES,
    BestFitPolicy,
    FirstFitPolicy,
    JumpPolicy,
    NextFitPolicy,
    VAPolicy,
    make_va_policy,
)

__all__ = [
    "PA_STRATEGIES",
    "VA_POLICIES",
    "ArenaStrategy",
    "BestFitPolicy",
    "DoubleFreeError",
    "FirstFitPolicy",
    "FreeListStrategy",
    "JumpPolicy",
    "NextFitPolicy",
    "OutOfMemoryError",
    "PAStrategy",
    "VAPolicy",
    "make_pa_strategy",
    "make_va_policy",
]
