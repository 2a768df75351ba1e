"""Ablation: page-fault latency with vs without the async free-PA buffer.

Design claim (section 4.3): pre-reserving physical pages into the async
buffer keeps the hardware fault path bounded; without it every fault
would wait for a full ARM-side PA allocation (~15 us) plus the
FPGA<->ARM handoff — orders of magnitude above the 3-cycle budget.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from bench_common import MB, make_cluster, mean, run_app

from repro.analysis.report import render_table
from repro.core.addr import AccessType

FAULTS = 30


def fault_latency_us(with_buffer: bool) -> float:
    cluster = make_cluster(mn_capacity=2 << 30)
    board = cluster.mn
    page = board.page_spec.page_size
    if not with_buffer:
        # Drain the pre-reserved stock and stop the refill: every fault
        # now waits for an on-demand ARM allocation.
        buffer = board.buffers.shared
        while len(buffer._store.items):
            ppn = buffer._store.items.popleft()
            buffer.allocator._reserved -= 1
            buffer.allocator.free(ppn)
        buffer.refill_ns = board.params.cboard.arm_pa_alloc_ns
    samples = []

    def experiment():
        response = yield from board.slow_path.handle_alloc(
            pid=1, size=(FAULTS + 1) * page)
        va = response.va
        for index in range(FAULTS):
            start = cluster.env.now
            result = yield from board.execute_local(
                1, AccessType.WRITE, va + index * page, 16, b"f" * 16)
            assert result.status.value == "ok"
            assert result.faulted
            samples.append(cluster.env.now - start)

    run_app(cluster, experiment())
    return mean(samples) / 1000


def run_experiment():
    return {
        "with_buffer": fault_latency_us(with_buffer=True),
        "without_buffer": fault_latency_us(with_buffer=False),
    }


def test_ablation_async_buffer(benchmark):
    results = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    print()
    print(render_table(
        "Ablation: first-touch fault latency (us)",
        ["configuration", "mean fault latency"],
        [["async buffer (Clio)", results["with_buffer"]],
         ["on-demand PA alloc", results["without_buffer"]]]))

    # The buffer keeps faults near the no-fault cost; removing it costs
    # roughly the ARM PA-allocation time per fault.
    assert results["without_buffer"] > results["with_buffer"] * 5
    assert results["with_buffer"] < 2.0      # us, on-board
