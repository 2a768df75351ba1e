"""Seeded-bug detection: prove every checker can actually fail.

A checker that has never caught a bug is indistinguishable from one that
checks nothing.  Each test plants one specific defect — broken atomic
serialization, silent DRAM corruption, defeated epoch fencing, a
double-applied atomic — and asserts the matching layer reports it.
"""

from dataclasses import replace

from repro.cluster import ClioCluster
from repro.params import MB, MS, US, ClioParams
from repro.sim import Resource
from repro.verify import (
    AtomicWordModel,
    HistoryOp,
    Scenario,
    Workload,
    check_history,
    run_scenario,
    scenario,
)


def test_mutated_atomic_unit_capacity_detected():
    """Seeded bug: the 'single' atomic unit admits two ops at once.

    The quick per-request invariant check must catch the broken
    mutual-exclusion watermark during the standard sync workload.
    """

    def mutate(cluster):
        unit = cluster.mn.atomic_unit
        unit._unit = Resource(cluster.env, capacity=2)

    result = run_scenario(scenario("sync"), seed=0, mutate=mutate)
    assert not result.ok
    assert any(v.invariant == "sync-mutual-exclusion"
               for v in result.violations), result.problems()

    # Control: the unmutated run is clean.
    clean = run_scenario(scenario("sync"), seed=0)
    assert clean.ok, clean.problems()


def test_hung_client_is_a_finding():
    """Seeded bug: a client waits on an event nothing ever fires.

    The runner must not hang on it (it runs to the deadline) and must not
    pass it either: a workload that hits its deadline is a problem.
    """

    class Hangs(Workload):
        def client(self, ctx, index):
            yield ctx.env.event()

    hung = Scenario("hung", Hangs(), deadline_ns=1 * MS,
                    cluster=dict(num_cns=1, mn_capacity=64 * MB))
    result = run_scenario(hung, seed=0)
    assert result.problems() == ["hung: workload hit the deadline"]


def test_unbalanced_transport_is_a_finding():
    """Seeded bug: one CN's transport counts a request that never
    completed nor failed — the runner's drained-transport audit flags it
    for every scenario, not just chaos."""

    def mutate(cluster):
        cluster.cn(1).transport.requests_issued += 1

    result = run_scenario(scenario("sync"), seed=0, mutate=mutate)
    assert result.ok      # the checkers see nothing wrong
    assert [p for p in result.problems() if "cn1" in p] == [
        "sync-unit: cn1: 31 issued != 30 settled "
        "(a request neither completed nor failed)"], result.problems()


def test_dram_corruption_detected_by_oracle():
    """Seeded bug: a byte flips in board DRAM behind the protocol's back.

    No write acknowledged the new bytes, so the next read must trip the
    shadow oracle with the corrupted values.
    """
    cluster = ClioCluster(num_cns=1, mn_capacity=64 * MB, seed=7,
                          layers=("verification",))
    verifier = cluster.verifier
    env = cluster.env
    board = cluster.mn

    def app():
        thread = cluster.cn(0).process("mn0", pid=4141).thread()
        va = yield from thread.ralloc(4096)
        yield from thread.rwrite(va, b"\xaa" * 64)
        page = board.page_spec.page_size
        entry = board.page_table.lookup(4141, va // page)
        board.dram.write(entry.ppn * page + (va % page), b"\xee" * 8)
        yield from thread.rread(va, 64)

    cluster.run(until=env.process(app()))
    report = verifier.report()
    assert report["read_mismatches"] == 8
    detail = report["mismatch_details"][0]
    assert "0xee" in detail and "pid4141" in detail


def test_broken_epoch_fencing_detected_end_to_end():
    """Seeded bug: the crash 'forgets' to advance the epoch.

    An atomic parked behind a long holder spans a full crash+restart;
    with fencing defeated, its pre-crash handler completes and the
    response escapes — acknowledged with zero retries across the crash
    window, exactly what the oracle's epoch rule flags.  The control run
    (fencing intact) forces a retransmission instead and stays clean.
    """
    params = ClioParams.prototype()
    params = replace(params, clib=replace(params.clib, timeout_ns=5 * MS,
                                          slow_timeout_ns=10 * MS,
                                          max_retries=3))

    def run(seeded_bug):
        cluster = ClioCluster(params=params, num_cns=1,
                              mn_capacity=64 * MB, seed=3,
                              layers=("verification",))
        verifier = cluster.verifier
        env = cluster.env
        board = cluster.mn

        def holder():
            request = board.atomic_unit._unit.request()
            yield request
            yield env.timeout(500 * US)
            board.atomic_unit._unit.release(request)

        def app():
            thread = cluster.cn(0).process("mn0", pid=5252).thread()
            va = yield from thread.ralloc(4096)
            env.process(holder())
            yield env.timeout(10 * US)
            yield from thread.rfaa(va, 1)

        def crash_it():
            board.crash()
            if seeded_bug:
                board._epoch -= 1   # fencing defeated

        done = env.process(app())
        env.schedule_callback(150 * US, crash_it)
        env.schedule_callback(300 * US, board.restart)
        cluster.run(until=done)
        return verifier.report()

    buggy = run(seeded_bug=True)
    assert buggy["epoch_violations"] == 1
    assert "post-fence" in buggy["epoch_details"][0]

    fenced = run(seeded_bug=False)
    assert fenced["epoch_violations"] == 0
    assert fenced["read_mismatches"] == 0


def test_double_applied_atomic_rejected_by_checker():
    """Seeded bug: dedup failure double-applies a retried faa.

    Both increments report old=0 — a history only a broken retry ring
    can produce; the linearizability checker must prove it impossible.
    """
    history = [
        HistoryOp(client="cn0", action=("faa", 1), result=(0, True),
                  start_ns=0, end_ns=100),
        HistoryOp(client="cn1", action=("faa", 1), result=(0, True),
                  start_ns=10, end_ns=90),
    ]
    result = check_history(history, AtomicWordModel)
    assert result.ok is False
