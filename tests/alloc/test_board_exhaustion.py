"""A board whose every physical page is touched fails the next touch
cleanly, on every PA strategy.

A 16-page board holds all its free pages in the ARM's async buffers, so
the last faults must be able to take pages reserved by any buffer — in
arena mode, the per-process buffer *and* the board's shared one (and the
shared one's stash under pid ``None``).  The fault after that is an OOM
answer, not a fault left pending forever.
"""

from dataclasses import replace

import pytest

from repro.alloc import PA_STRATEGIES
from repro.clib.client import RemoteAccessError
from repro.cluster import ClioCluster
from repro.core.pipeline import Status
from repro.params import KB, AllocParams, ClioParams

PAGE = 64 * KB
PAGES = 16


@pytest.mark.parametrize("strategy", sorted(PA_STRATEGIES))
def test_every_page_is_reachable_then_oom(strategy):
    params = replace(ClioParams.prototype(),
                     alloc=AllocParams(pa_strategy=strategy))
    cluster = ClioCluster(params=params, mn_capacity=PAGES * PAGE,
                          page_size=PAGE, seed=0)
    thread = cluster.cn(0).process("mn0").thread()
    written, errors = [], []

    def app():
        vas = []
        for _ in range(PAGES + 1):
            va = yield from thread.ralloc(PAGE)
            vas.append(va)
        for va in vas:
            try:
                yield from thread.rwrite(va, b"x")
                written.append(va)
            except RemoteAccessError as exc:
                errors.append(exc.status)

    cluster.run(until=cluster.env.process(app()))
    assert len(written) == PAGES
    assert errors == [Status.OOM]
    assert cluster.mn.fast_path._pending_faults == {}
