"""``src/`` stays under a ceiling: size is a gate, not a report.

ROADMAP's *Small* aim is measured by ``tools/code_lines.py``.  A PR that
must grow ``src/`` raises the constant below in its own diff, where
review sees it; one that shrinks it lowers the constant to the new count
so the ground is kept.
"""

from tools.code_lines import ROOT, count_files

#: ``python tools/code_lines.py`` once what only tests reached was deleted
#: (13 404 before): the graph, analytics and embeddings apps, the
#: Go-Back-N protocol (its byte formula moved into
#: ``core/state_accounting.py``), the microbench driver, and the
#: single-use definitions ``tools/reach.py`` listed — ``run_rack_chaos``,
#: ``arc_share``, ``with_lock``, ``invalidate_pid``, ``tenant_of``,
#: ``zipf_index`` and the gather ``read_many`` only embeddings used.
#: +1 since: module constants for the enum members the op path tests
#: (13 lines), nearly all paid for by building its records positionally.
#: -111 since: SimBoard's copy of the wire protocol deleted; both boards
#: share ``core/wire.py``.
#: -113 since: chaos became a registry row (``faults/scenarios.py``,
#: ``ChaosReport`` and ``run_chaos`` deleted), five unread params went.
#: -115 since: twelve ``stats()`` copies of registry instruments and the
#: view class behind them deleted; the registry is the one read path.
#: -83 since: params ranges declared on their fields and checked once;
#: the per-field validators and the components' re-checks deleted.
#: -123 since: the ``PAAllocator`` wrapper, the allocators' ``stats()``
#: dicts and the second buffer path deleted; the board's ``pa_allocator``
#: is its strategy, and one ``BufferBank`` holds every async buffer.
#: -177 since: the seven comparison-backend adapters folded into their
#: models' four verbs; one ``sample_latencies`` loop times them all.
#: -102 since: ``tools/reach.py`` became a closure from the entry points,
#: and what only re-exports, tests or its own name reached was deleted.
#: -119 since: placement has one record, the controller's leases; the
#: ring's override directory, the per-board region sets, ``rack/tier.py``
#: and the rack and health knobs no caller set are gone.
#: -228 since: the partitioned engine is its scheduler (no lookahead
#: edges, channels or stats), the MAT is Figure 2's type -> path table,
#: and counters and gauges are views only.
#: +60 since: the board serves a one-page READ or WRITE as bare callbacks
#: from the port to its response (``FastPath.serve``, ``Board._respond``),
#: a host-rate change; the handlers' ``lean`` fork and the gated
#: ``_lane`` are gone, and ``_write_progress`` drops orphaned entries,
#: which the ``write-progress`` invariant bounds.
#: +6 since: each packet pays only for its own work, a host-rate change.
#: The flat ``schedule_callback`` pushes its own heap entry and the
#: partitioned engine overrides it to keep ``_schedule``'s bound check, a
#: link binds its jitter constants once, and one-packet requests and read
#: responses are built without ``fragment_payload``.  The clock property,
#: the pooled ``Timeout``'s dead resets and ``Partition.step``'s copy of
#: ``run`` went.
#: -6 since: every READ and WRITE runs as callbacks from the port to its
#: response, fragments and retries too; ``Board._traverse``, the
#: ``_handle_write`` generator and the second fence wait are gone.
#: -16 since: an ATOMIC is translated by ``FastPath.serve`` (both
#: ``translate_only`` copies are gone), ``Board._handle`` replays every
#: remembered response body in one place, and one sender fragments every
#: response at the MTU (``_send_batch_response`` is gone).
#: -123 since: the section 3.3 transparent mode runs on the caching layer
#: (``clib/transparent.py`` is gone), and ``ExtendPath.context`` went.
#: -42 since: ``ClioCluster(partitioned=)`` is the one place that picks
#: the engine; the CLI's ``--pdes``, ``--check-determinism`` and
#: ``--cprofile``, ``run_scenario``'s and ``run_churn``'s ``partitioned=``
#: and ``same_on_other_engine`` are gone.  The CLI's new count and goodput
#: size checks are inside that figure.
#: -124 since: one tenancy, the switch's egress shaper: the capacity
#: quotas (``distributed/tenancy.py``), the CXL pool's tenants, second
#: shaper, coherence switch and registry export are gone.  The
#: controller's verifier hook and the CLI's one-board and interval
#: checks are inside that figure.
#: -115 since: the radix tree and the image-compression client are written
#: once over the four comparison verbs; their RDMA copies and the tree's
#: CN-side bump allocator are gone.  The CLI's size bound for
#: ``latency``, ``compare`` and ``metrics`` is inside that figure.
#: +7 since, raised on purpose: the DRAM store is backed in 4 KB pieces
#: (``core/memory.py`` +5: a write that fits one piece takes one slice,
#: and ``zero`` clears its two edge pieces and drops the pieces between
#: without a ``divmod`` per piece), and a transfer longer than
#: ``slow_timeout_ns`` keeps its own first timeout on every attempt
#: (``transport/clib_transport.py`` +2).  The root package's lazy exports
#: are net zero.
#: -295 since: one page pool: the slab and buddy PA strategies,
#: ``AllocParams.slab_pages`` / ``slab_classes`` and the strategies'
#: unused ``name`` attributes are gone; ``freelist`` and ``arena`` stay.
#: +70 since, raised on purpose: tracing cheap enough to stay on.  Rows
#: are packed to int64 bytes when written and a group's parts name the
#: cells they share (``telemetry/spans.py`` +67: ``opening`` / ``open``,
#: the per-head layouts and weights, refusing a stamped row at flush);
#: the site lookups are keyed by value (``core/`` +4, ``transport/`` +1).
#: The CLI's size bound lost its port half (-2).
#: -63 since: HERD, HERD-BF and LegoOS are one ``ServedMemoryNode`` with
#: a cost row each; LegoOS's page-table faces and the unread counters
#: went.  The shared ``Extents`` records (freed memory comes back) and
#: Clover's multi-slot versions are in the count.
#: -4 since: the CXL pool's range list is ``Extents`` too (-13); the CLI
#: bounds ``compare``'s Clover slots and ``alloc``'s RDMA node (+9).
SRC_CEILING = 11_051


def test_src_stays_under_its_ceiling():
    total = sum(count_files([ROOT / "src"]).values())
    assert total <= SRC_CEILING, (
        f"src/ is {total} code lines, over the {SRC_CEILING} ceiling: "
        "shrink it, or raise SRC_CEILING in this diff and say why")
