"""Figure 14: latency breakdown at the CBoard, 4 B to 1 KB requests.

Paper result: DRAM access time (through the board's slow memory
controller) and wire transfer are the main contributors to read latency —
especially at large sizes — with the TLB-miss bucket fetch (one DRAM
read) being the other significant part.  The fixed pipeline stages are a
small, constant slice; CLib adds only ~250 ns.
"""

from bench_common import KB, MB, make_cluster, run_app

from repro.analysis.report import render_table
from repro.core.addr import AccessType

SIZES = [4, 64, 256, 1 * KB]
OPS = 40


def breakdown_for(size: int, write: bool, force_tlb_miss: bool) -> dict:
    """Per-component means, read from the pipeline's ``fastpath:*`` spans.

    The measured loop does not touch ``result.breakdown`` at all: the
    telemetry spans carry the same per-stage decomposition in their args,
    so the tracer is the benchmark's only data source.
    """
    cluster = make_cluster(mn_capacity=1 << 30, layers=("tracing",))
    tracer = cluster.tracer
    board = cluster.mn
    tlb_entries = board.tlb.capacity
    page = board.page_spec.page_size
    payload = b"b" * size
    mark = 0

    def experiment():
        nonlocal mark
        response = yield from board.slow_path.handle_alloc(
            pid=1, size=(tlb_entries * 2 + 2) * page)
        va = response.va
        pages = tlb_entries * 2 if force_tlb_miss else 1
        for index in range(pages):
            yield from board.execute_local(1, AccessType.WRITE,
                                           va + index * page, 64, b"\0" * 64)
        mark = len(tracer.spans)          # ignore priming traffic
        for index in range(OPS):
            target = va + (index % pages) * page
            if write:
                yield from board.execute_local(
                    1, AccessType.WRITE, target, size, payload)
            else:
                yield from board.execute_local(
                    1, AccessType.READ, target, size)

    run_app(cluster, experiment())
    access = "write" if write else "read"
    spans = [span for span in tracer.spans[mark:]
             if span.name == f"fastpath:{access}"]
    assert len(spans) == OPS
    components = {"ingest": 0, "pipeline": 0, "tlbmiss": 0, "fault": 0,
                  "dram": 0}
    for span in spans:
        assert span.args["status"] == "ok"
        components["ingest"] += span.args["ingest_ns"]
        components["pipeline"] += span.args["pipeline_ns"]
        components["tlbmiss"] += span.args["tlb_miss_ns"]
        components["fault"] += span.args["fault_ns"]
        components["dram"] += span.args["dram_ns"]
        # The span brackets the whole pipeline pass: its duration is the
        # sum of the parts it reports.
        assert span.duration_ns == (
            span.args["ingest_ns"] + span.args["pipeline_ns"]
            + span.args["tlb_miss_ns"] + span.args["fault_ns"]
            + span.args["dram_ns"])
    return {name: value / OPS for name, value in components.items()}


def run_experiment():
    rows = {}
    for size in SIZES:
        rows[("read", size)] = breakdown_for(size, write=False,
                                             force_tlb_miss=False)
        rows[("write", size)] = breakdown_for(size, write=True,
                                              force_tlb_miss=False)
        rows[("read+miss", size)] = breakdown_for(size, write=False,
                                                  force_tlb_miss=True)
    return rows


def test_fig14_latency_breakdown(benchmark):
    rows = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    table = []
    for (kind, size), parts in rows.items():
        total = sum(parts.values())
        table.append([f"{kind} {size}B",
                      round(parts["ingest"], 1),
                      round(parts["pipeline"], 1),
                      round(parts["tlbmiss"], 1),
                      round(parts["dram"], 1),
                      round(total, 1)])
    print()
    print(render_table(
        "Figure 14: CBoard latency breakdown (ns, per request)",
        ["request", "ingest", "pipeline", "TLB miss", "DRAM", "total"],
        table))

    read_small = rows[("read", 4)]
    read_big = rows[("read", 1 * KB)]
    miss_small = rows[("read+miss", 4)]

    # DRAM dominates the on-board time, more so at large sizes.
    assert read_big["dram"] > read_big["pipeline"]
    assert read_big["dram"] > read_small["dram"]

    # The fixed pipeline slice is constant across sizes.
    assert read_small["pipeline"] == read_big["pipeline"]

    # A TLB miss adds one DRAM bucket fetch, nothing else.
    cluster_dram_ns = 300   # board controller fixed access latency
    assert abs(miss_small["tlbmiss"] - cluster_dram_ns) < 40
    assert rows[("read", 4)]["tlbmiss"] == 0

    # No faults in steady state.
    for parts in rows.values():
        assert parts["fault"] == 0
