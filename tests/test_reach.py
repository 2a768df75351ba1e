"""Every definition nothing outside ``tests/`` reaches is kept on purpose.

``tools/reach.py`` lists the functions and classes of ``src/repro`` that
no figure, scenario, CLI verb, example or tool names.  Each one must be
a row below, with the reason it stays; the table is pinned exactly like
``SRC_CEILING``.  A new unreached definition fails here: delete it, or
add its row in the same diff and say why.  A row whose definition was
deleted or became reached fails too, so the table stays the list.
"""

from tools.reach import unreached

PARTITION = "the partitioned engine's API; goes with that engine"
THREAD_API = "public ClioThread API"
ACCESSOR = "accessor tests observe through"

#: ``(file under src/repro, name) -> reason it stays``.
KEPT = {
    ("alloc/pa_strategies.py", "alloc_run"):
        "buddy runs drive split/coalesce in test_alloc_stateful",
    ("clib/client.py", "disable_batching"): THREAD_API,
    ("clib/client.py", "rcas"): THREAD_API,
    ("clib/transparent.py", "cached_bytes"): ACCESSOR,
    ("cluster.py", "partition_report"): PARTITION,
    ("core/addr.py", "page_base"): ACCESSOR,
    ("core/extend.py", "caller_aware"): ACCESSOR,
    ("core/memory.py", "resident_bytes"): ACCESSOR,
    ("core/pa_allocator.py", "return_unused"):
        "async-buffer API the allocator stateful tests drive",
    ("core/page_table.py", "entries_for_pid"): ACCESSOR,
    ("core/simboard.py", "register_offload"):
        "SimBoard is the oracle CBoard's offloads are checked against",
    ("core/va_allocator.py", "allocated_bytes"): ACCESSOR,
    ("faults/schedule.py", "restart_board"):
        "scripts the orphan restart FaultSchedule.validate must reject",
    ("net/switch.py", "node_names"): ACCESSOR,
    ("net/switch.py", "shaper_for"): ACCESSOR,
    ("rack/shard.py", "override_for"): ACCESSOR,
    ("sim/partition.py", "min_lookahead"): PARTITION,
    ("sim/partition.py", "open_channel"): PARTITION,
    ("sim/partition.py", "quiesced"): PARTITION,
    ("telemetry/spans.py", "find_instants"): "trace read API",
    ("telemetry/spans.py", "find_spans"): "trace read API",
    ("transport/ordering.py", "inflight_count"): ACCESSOR,
}


def test_every_unreached_definition_is_kept_with_a_reason():
    found = {(file, name) for file, name, _ in unreached()}
    new = sorted(found - set(KEPT))
    stale = sorted(set(KEPT) - found)
    assert not new, (
        f"unreached definitions with no KEPT row: {new}; delete them, or "
        "add a row in this diff and say why")
    assert not stale, (
        f"KEPT rows that are no longer unreached definitions: {stale}; "
        "drop them")
