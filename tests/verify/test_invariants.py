"""Unit tests for the invariant predicates.

Each test drives a real cluster into a healthy state, asserts the sweep
is clean, then corrupts one structure directly and asserts exactly the
matching invariant fires.  Corruptions are undone where later asserts
need a sane board again.
"""

from repro.cluster import ClioCluster
from repro.core.cboard import _WriteProgress
from repro.params import MB
from repro.verify import (
    check_board,
    check_cluster,
    check_transport,
    quick_check_board,
)


def make_cluster(**kwargs):
    kwargs.setdefault("num_cns", 1)
    kwargs.setdefault("mn_capacity", 64 * MB)
    return ClioCluster(**kwargs)


def run_workload(cluster, pid=6001, io=64):
    """Alloc + write + read so every structure has live entries."""
    result = {}

    def app():
        thread = cluster.cn(0).process("mn0", pid=pid).thread()
        va = yield from thread.ralloc(4096)
        yield from thread.rwrite(va, b"\x42" * io)
        result["data"] = yield from thread.rread(va, io)
        result["va"] = va

    cluster.run(until=cluster.env.process(app()))
    return result


def names(violations):
    return sorted({v.invariant for v in violations})


def test_healthy_cluster_is_clean():
    cluster = make_cluster()
    run_workload(cluster)
    assert check_cluster(cluster) == []
    assert quick_check_board(cluster.mn) == []


def test_pa_conservation_detects_leaked_page():
    cluster = make_cluster()
    run_workload(cluster)
    board = cluster.mn
    board.pa_allocator._reserved -= 1   # a page vanishes from the world
    violations = check_board(board)
    assert names(violations) == ["pa-conservation"]
    assert "free=" in violations[0].describe()
    board.pa_allocator._reserved += 1
    assert check_board(board) == []


def test_pa_free_while_mapped_detected():
    cluster = make_cluster()
    run_workload(cluster)
    board = cluster.mn
    mapped = next(e.ppn for e in board.page_table._index.values()
                  if e.present)
    strategy = board.pa_allocator
    strategy._free.append(mapped)
    strategy._free_set.add(mapped)
    violations = check_board(board)
    assert "pa-free-while-mapped" in names(violations)


def test_tlb_coherence_detects_stale_entry():
    cluster = make_cluster()
    run_workload(cluster, pid=6002)
    board = cluster.mn
    assert board.tlb._entries, "workload should have warmed the TLB"
    key = next(iter(board.tlb._entries))
    ppn, permission = board.tlb._entries[key]
    board.tlb._entries[key] = (ppn + 1, permission)   # stale translation
    violations = check_board(board)
    assert "tlb-coherence" in names(violations)
    board.tlb._entries[key] = (ppn, permission)
    # An entry for a page the table never mapped is also incoherent.
    board.tlb._entries[(9999, 0)] = (ppn, permission)
    assert "tlb-coherence" in names(check_board(board))


def test_sync_mutual_exclusion_watermark():
    cluster = make_cluster()
    board = cluster.mn
    board.atomic_unit.max_active = 2
    assert names(check_board(board)) == ["sync-mutual-exclusion"]
    assert names(quick_check_board(board)) == ["sync-mutual-exclusion"]


def test_inflight_negative_detected():
    cluster = make_cluster()
    board = cluster.mn
    board._inflight = -1
    assert "inflight" in names(quick_check_board(board))
    assert "inflight" in names(check_board(board))


def test_write_progress_span_is_bounded():
    cluster = make_cluster()
    run_workload(cluster)
    board = cluster.mn
    ttl = board.params.clib.slow_timeout_ns
    board._write_progress.update({1: _WriteProgress(2, 0),
                                  2: _WriteProgress(2, ttl)})
    assert check_board(board) == []
    board._write_progress[3] = _WriteProgress(2, ttl + 1)
    violations = check_board(board)
    assert names(violations) == ["write-progress"]
    assert "request 1 has remaining=2, 100000001 ns older" in (
        violations[0].describe())
    board._write_progress.clear()


def test_transport_window_mismatch_detected():
    cluster = make_cluster()
    run_workload(cluster, pid=6003)
    node = cluster.cn(0)
    assert check_transport(node) == []
    controller = next(iter(node.transport._congestion.values()))
    controller.outstanding += 1   # phantom in-flight request
    violations = check_transport(node)
    assert names(violations) == ["transport-window"]
    controller.outstanding -= 2   # now negative
    assert "transport-window" in names(check_transport(node))


def test_transport_conservation_detected():
    cluster = make_cluster()
    run_workload(cluster, pid=6004)
    node = cluster.cn(0)
    node.transport.requests_completed += 5   # settled more than issued
    assert "transport-conservation" in names(check_transport(node))


def test_violation_describe_mentions_subject_and_time():
    cluster = make_cluster()
    board = cluster.mn
    board.atomic_unit.max_active = 3
    violation = check_board(board)[0]
    text = violation.describe()
    assert "mn0" in text and "sync-mutual-exclusion" in text
    assert f"t={cluster.env.now}" in text
