"""Hypothesis stateful model-check of every PA strategy.

One reference model — a plain ``(allocated, free)`` page partition —
drives both strategies through random allocate/free/double-free
interleavings.  After every rule the machine asserts:

* **no-overlap** — ``free_ppns()`` never intersects the allocated set
  and never repeats a page;
* **conservation** — ``allocated + free == physical`` exactly;
* **audit-clean** — the strategy's own ``check()`` finds nothing.

Runs under the deterministic Hypothesis profile (tests/conftest.py) so
failures reproduce; the ``alloc`` CI row draws fresh sequences with
``HYPOTHESIS_PROFILE=random``.
"""

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.alloc import DoubleFreeError, OutOfMemoryError, make_pa_strategy
from repro.params import AllocParams

POOL = 96


class AllocMachine(RuleBasedStateMachine):
    strategy_name: str = ""

    def __init__(self):
        super().__init__()
        self.s = make_pa_strategy(self.strategy_name, POOL, AllocParams(
            arena_batch_pages=4, arena_stash_max=8))
        self.allocated: dict[int, int] = {}  # ppn -> pid
        self.free: set[int] = set(range(POOL))

    @rule(pid=st.integers(min_value=0, max_value=5))
    def allocate(self, pid):
        if self.free:
            ppn = self.s.allocate(pid)
            assert ppn in self.free, f"strategy handed out non-free ppn {ppn}"
            self.free.discard(ppn)
            self.allocated[ppn] = pid
        else:
            with pytest.raises(OutOfMemoryError):
                self.s.allocate(pid)

    @rule(data=st.data())
    def free_one(self, data):
        if not self.allocated:
            return
        ppn = data.draw(st.sampled_from(sorted(self.allocated)))
        pid = self.allocated.pop(ppn)
        self.s.free(ppn, pid)
        self.free.add(ppn)

    @rule(data=st.data())
    def double_free_rejected(self, data):
        if not self.free:
            return
        ppn = data.draw(st.sampled_from(sorted(self.free)))
        with pytest.raises(DoubleFreeError):
            self.s.free(ppn, 0)

    @invariant()
    def conservation(self):
        assert self.s.free_pages == len(self.free)
        assert len(self.allocated) + self.s.free_pages == POOL

    @invariant()
    def no_overlap_and_audit_clean(self):
        listed = list(self.s.free_ppns())
        assert len(listed) == len(set(listed)), "free page listed twice"
        assert set(listed) == self.free, "free_ppns drifted from the model"
        assert not set(listed) & set(self.allocated)
        problems = self.s.check()
        assert problems == [], problems

    @invariant()
    def is_free_agrees(self):
        for probe in (0, POOL // 2, POOL - 1):
            assert self.s.is_free(probe) == (probe in self.free)


class FreelistMachine(AllocMachine):
    strategy_name = "freelist"


class ArenaMachine(AllocMachine):
    strategy_name = "arena"


class ReservedConservationMachine(RuleBasedStateMachine):
    """Board-level conservation through a strategy's ``_reserved``: pages
    move between free / reserved (async-buffer style) / used, and
    ``free + reserved + used == physical`` must hold after every rule —
    for every strategy, chosen per example."""

    strategies = st.sampled_from(["freelist", "arena"])

    def __init__(self):
        super().__init__()
        self.pa = None

    @rule(name=strategies)
    def init_allocator(self, name):
        if self.pa is None:
            self.pa = make_pa_strategy(name, POOL, AllocParams())
            self.reserved: list[int] = []
            self.used: dict[int, int] = {}

    @rule(pid=st.integers(min_value=0, max_value=3))
    def reserve(self, pid):
        """ARM pre-reserves a page into the async buffer."""
        if self.pa is None or self.pa.free_pages == 0:
            return
        ppn = self.pa.allocate(pid)
        self.pa._reserved += 1
        self.reserved.append(ppn)

    @rule()
    def fault_consume(self):
        """Fast path pops a pre-reserved page and maps it."""
        if self.pa is None or not self.reserved:
            return
        ppn = self.reserved.pop(0)
        self.pa._reserved -= 1
        self.used[ppn] = 0

    @rule()
    def return_unused(self):
        """A popped-but-unused page recycles back to the pool."""
        if self.pa is None or not self.reserved:
            return
        ppn = self.reserved.pop()
        self.pa._reserved -= 1
        self.pa.free(ppn, 0)

    @rule(data=st.data())
    def free_used(self, data):
        if self.pa is None or not self.used:
            return
        ppn = data.draw(st.sampled_from(sorted(self.used)))
        del self.used[ppn]
        self.pa.free(ppn, 0)

    @invariant()
    def conservation_with_reserved(self):
        if self.pa is None:
            return
        assert (self.pa.free_pages + self.pa._reserved + len(self.used)
                == POOL), "a page leaked or duplicated"
        # Reserved pages live in the buffer (self.reserved), used pages
        # are mapped (self.used).
        assert self.pa._reserved == len(self.reserved)
        assert self.pa.check() == []


class VAFixedMachine(RuleBasedStateMachine):
    """Random alloc / free / fixed-va sequences through the real
    :class:`VAAllocator`, one example per policy: granted ranges stay
    page-aligned and disjoint per process, and every granted page has a
    PTE."""

    policies = st.sampled_from(["first-fit", "next-fit", "best-fit", "jump"])

    def __init__(self):
        super().__init__()
        self.alloc = None

    @rule(policy=policies)
    def init_allocator(self, policy):
        if self.alloc is None:
            from repro.core.addr import PageSpec
            from repro.core.page_table import HashPageTable
            from repro.core.va_allocator import VA_BASE, VAAllocator

            self.page = 1 << 22
            self.va_base = VA_BASE
            table = HashPageTable(physical_pages=512, slots_per_bucket=4,
                                  overprovision=2.0)
            self.alloc = VAAllocator(table, PageSpec(self.page),
                                     policy=policy)
            self.table = table
            self.ranges: dict[int, dict[int, int]] = {}  # pid -> va -> size

    @rule(pid=st.integers(min_value=1, max_value=3),
          pages=st.integers(min_value=1, max_value=3))
    def allocate(self, pid, pages):
        if self.alloc is None:
            return
        from repro.core.va_allocator import AllocationError

        try:
            got = self.alloc.allocate(pid=pid, size=pages * self.page)
        except AllocationError:
            return
        self.ranges.setdefault(pid, {})[got.allocation.va] = \
            got.allocation.size

    @rule(pid=st.integers(min_value=1, max_value=3),
          slot=st.integers(min_value=0, max_value=40),
          pages=st.integers(min_value=1, max_value=2))
    def allocate_fixed(self, pid, slot, pages):
        if self.alloc is None:
            return
        from repro.core.va_allocator import AllocationError

        fixed = self.va_base + slot * self.page
        try:
            got = self.alloc.allocate(pid=pid, size=pages * self.page,
                                      fixed_va=fixed)
        except AllocationError:
            return
        self.ranges.setdefault(pid, {})[got.allocation.va] = \
            got.allocation.size

    @rule(data=st.data())
    def free_one(self, data):
        if self.alloc is None:
            return
        owners = [pid for pid, spans in self.ranges.items() if spans]
        if not owners:
            return
        pid = data.draw(st.sampled_from(sorted(owners)))
        va = data.draw(st.sampled_from(sorted(self.ranges[pid])))
        del self.ranges[pid][va]
        self.alloc.free(pid, va)

    @invariant()
    def aligned_disjoint_and_mapped(self):
        if self.alloc is None:
            return
        for pid, spans in self.ranges.items():
            ordered = sorted(spans.items())
            for (va, size), (nxt, _) in zip(ordered, ordered[1:]):
                assert va + size <= nxt, f"pid {pid} ranges overlap"
            for va, size in ordered:
                assert va % self.page == 0
                for vpn in range(va // self.page, (va + size) // self.page):
                    assert self.table.lookup(pid, vpn) is not None


TestFreelistStateful = FreelistMachine.TestCase
TestArenaStateful = ArenaMachine.TestCase
TestReservedConservation = ReservedConservationMachine.TestCase
TestVAFixedStateful = VAFixedMachine.TestCase

for case in (TestFreelistStateful, TestArenaStateful,
             TestReservedConservation, TestVAFixedStateful):
    case.settings = settings(
        case.settings, max_examples=25, stateful_step_count=40,
        deadline=None)
