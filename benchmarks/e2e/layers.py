"""Per-layer attribution: host time from a profile, simulated time from spans.

Both passes are owned by the benchmark and read the program through
public surfaces only: pass H buckets a ``cProfile`` run by the
``repro/<package>/`` each function's file lives in; pass S walks the
tracer's nested spans ``request:* > attempt:* > mn:* > fastpath:*``.
"""

from __future__ import annotations

import os
import pstats
from collections import Counter

from metrics import LAYERS, MODEL_LAYERS, quantile_ns

HERE = os.path.dirname(os.path.abspath(__file__))


def _layer_of(filename: str):
    """Layer a profiled function belongs to, or None for stdlib/builtins."""
    if filename.startswith(HERE):
        return "other"                      # the benchmark's own frames
    index = filename.rfind("/repro/")
    if index < 0:
        return None
    package = filename[index + len("/repro/"):].split("/")[0]
    return package if package in MODEL_LAYERS else "other"


def host_attribution(profile) -> dict:
    """``{layer: (share of exclusive host time, calls)}`` from pass H.

    A ``repro`` function's exclusive time goes to its package.  Builtin
    and stdlib functions have no package of their own: their exclusive
    time is charged, caller by caller, to whichever layer called them
    (through further stdlib frames if need be, split by cumulative time).
    """
    stats = pstats.Stats(profile).stats
    owners: dict = {}

    def owner(function) -> dict:
        """Layer mix that a stdlib/builtin function's time is charged to."""
        known = owners.get(function)
        if known is not None:
            return known
        layer = _layer_of(function[0])
        if layer is not None:
            owners[function] = {layer: 1.0}
            return owners[function]
        owners[function] = {"other": 1.0}   # breaks stdlib recursion
        callers = stats[function][4] if function in stats else {}
        weight = sum(entry[3] for entry in callers.values())
        if weight > 0:
            mix: dict = {}
            for caller, entry in callers.items():
                for name, part in owner(caller).items():
                    mix[name] = mix.get(name, 0.0) + part * entry[3] / weight
            owners[function] = mix
        return owners[function]

    seconds = dict.fromkeys(LAYERS, 0.0)
    calls = dict.fromkeys(LAYERS, 0)
    for function, (_, ncalls, exclusive, _, callers) in stats.items():
        layer = _layer_of(function[0])
        calls[layer or "other"] += ncalls
        if layer is not None or not callers:
            seconds[layer or "other"] += exclusive
            continue
        for caller, entry in callers.items():
            for name, part in owner(caller).items():
                seconds[name] += entry[2] * part
    total = sum(seconds.values())
    return {layer: (seconds[layer] / total, calls[layer]) for layer in LAYERS}


def _covered(intervals, low: int, high: int) -> int:
    """Length of ``[low, high)`` covered by the union of ``intervals``."""
    covered, edge = 0, low
    for start, end in sorted(intervals):
        start, end = max(start, edge), min(end, high)
        if end > start:
            covered += end - start
            edge = end
    return covered


def span_attribution(spans, ops: int, mean_latency_ns: float) -> dict:
    """Per-layer simulated self time per op from pass S.

    A layer's self time is its span minus what its child spans cover:
    ``transport`` = request - attempts (CLib overhead, window and incast
    admission wait), ``net`` = attempt - mn (links, switches, queueing,
    both directions), ``core`` = mn (the board).  The fast-path stage
    split is summed from ``fastpath:*`` span args; fragments of one write
    overlap in time, so on ``mixed_rw_contended`` the stages can add up
    to more than ``core.sim_self_ns``.
    """
    requests, attempts, boards, stages = [], {}, {}, []
    for span in spans:
        kind = span.name.partition(":")[0]
        if kind == "request":
            requests.append(span)
        elif kind == "attempt":
            attempts[span.args["request_id"]] = span
        elif kind == "mn":
            boards.setdefault(span.args["request_id"], []).append(
                (span.start_ns, span.end_ns))
        elif kind == "fastpath":
            stages.append(span)
    by_original: dict = {}
    for request_id, span in attempts.items():
        by_original.setdefault(span.args["retry_of"] or request_id,
                               []).append((request_id, span))
    transport, net, core = [], [], []
    for request in requests:
        final = request.args.get("request_id")
        if final is None or request.end_ns is None:
            continue                        # failed: counted by the checks
        original = attempts[final].args["retry_of"] or final
        on_wire = on_board = 0
        for request_id, attempt in by_original[original]:
            on_wire += attempt.end_ns - attempt.start_ns
            on_board += _covered(boards.get(request_id, ()),
                                 attempt.start_ns, attempt.end_ns)
        transport.append(request.end_ns - request.start_ns - on_wire)
        net.append(on_wire - on_board)
        core.append(on_board)
    out = dict.fromkeys(
        ("transport.sim_self_ns", "transport.sim_self_p99_ns",
         "net.sim_self_ns", "net.sim_self_p99_ns", "core.sim_self_ns",
         "core.sim_pipeline_ns", "core.sim_dram_ns", "core.sim_tlb_miss_ns",
         "core.sim_fault_ns", "trace.sim_sum_error_ns"), 0.0)
    out["telemetry.spans_per_op"] = len(spans) / ops
    if requests:
        out["transport.sim_self_ns"] = sum(transport) / ops
        out["transport.sim_self_p99_ns"] = quantile_ns(Counter(transport),
                                                       0.99)
        out["net.sim_self_ns"] = sum(net) / ops
        out["net.sim_self_p99_ns"] = quantile_ns(Counter(net), 0.99)
        out["core.sim_self_ns"] = sum(core) / ops
    elif stages:                            # on-board: no request spans
        out["core.sim_self_ns"] = sum(
            span.end_ns - span.start_ns for span in stages) / ops
    if stages:
        for key, arg in (("core.sim_pipeline_ns", "pipeline_ns"),
                         ("core.sim_dram_ns", "dram_ns"),
                         ("core.sim_tlb_miss_ns", "tlb_miss_ns"),
                         ("core.sim_fault_ns", "fault_ns")):
            out[key] = sum(span.args[arg] for span in stages) / ops
        # Ingest is the first fast-path stage; it has no metric of its own.
        out["core.sim_pipeline_ns"] += sum(
            span.args["ingest_ns"] for span in stages) / ops
        out["trace.sim_sum_error_ns"] = abs(
            out["transport.sim_self_ns"] + out["net.sim_self_ns"]
            + out["core.sim_self_ns"] - mean_latency_ns)
    return out
