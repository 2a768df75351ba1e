"""Chaos under the oracle: every fault scenario, zero unexplained reads.

Two claims are pinned here:

* **Soundness under faults** — running the full checking stack through
  every canned chaos scenario yields zero read mismatches, zero epoch
  violations, and zero invariant violations.  Crashes, link flaps, loss
  bursts, and ARM stalls must all be *masked* by retransmission and the
  epoch fence, never surfaced as wrong data.
* **Passivity** — verification is observation only.  A verified run's
  fingerprint (timestamps, op outcomes, counters) is bit-identical to an
  unverified one, and the verified no-fault run still matches the golden
  fingerprint captured before the verify subsystem existed.
"""

import pytest

from repro.cluster import ClioCluster
from repro.params import MB
from repro.verify import CHAOS_SCRIPTS, run_scenario, scenario
from tests.faults.test_chaos import GOLDEN_NO_FAULT, no_fault_fingerprint


def chaos(schedule, seed, ops, verify):
    return run_scenario(scenario("chaos", schedule=schedule, ops=ops,
                                 verify=verify), seed=seed)


@pytest.mark.parametrize("schedule", sorted(CHAOS_SCRIPTS))
def test_scenario_has_zero_unexplained_reads(schedule):
    result = chaos(schedule, seed=1234, ops=400, verify=True)
    verification = result.report
    assert verification
    assert verification["read_mismatches"] == 0, \
        verification["mismatch_details"]
    assert verification["epoch_violations"] == 0, \
        verification["epoch_details"]
    assert verification["invariant_violations"] == 0, \
        verification["violations"]
    assert result.problems() == []
    # The oracle actually watched the run, it didn't sit idle.
    assert verification["reads_checked"] > 0
    assert verification["writes_tracked"] > 0
    assert verification["bytes_checked"] > 0


@pytest.mark.parametrize("schedule", sorted(CHAOS_SCRIPTS))
def test_verification_is_passive(schedule):
    verified = chaos(schedule, seed=4321, ops=300, verify=True)
    plain = chaos(schedule, seed=4321, ops=300, verify=False)
    assert verified.extras["fingerprint"] == plain.extras["fingerprint"]


def test_verified_no_fault_run_matches_golden_fingerprint():
    # Same workload as tests/faults/test_chaos.py, but with the verifier
    # attached: the golden fingerprint must still hold bit-for-bit.
    cluster = ClioCluster(seed=1234, num_cns=2, mn_capacity=256 * MB,
                          layers=("verification",))
    # no_fault_fingerprint builds its own cluster; replay its workload
    # here against the verified one by reusing the helper's core loop.
    from repro.core.addr import Permission
    from repro.net.packet import PacketType

    done = []

    def worker(cn_index, pid):
        transport = cluster.cn(cn_index).transport
        outcome = yield from transport.request(
            "mn0", PacketType.ALLOC, pid=pid,
            payload=(8 * MB, Permission.READ_WRITE, None))
        va = outcome.body.value.va
        for index in range(120):
            offset = (index * 4096) % (4 * MB)
            yield from transport.request(
                "mn0", PacketType.WRITE, pid=pid, va=va + offset, size=64,
                data=bytes([index % 256]) * 64)
            yield from transport.request(
                "mn0", PacketType.READ, pid=pid, va=va + offset, size=64)
        done.append(cluster.env.now)

    procs = [cluster.env.process(worker(0, 9001)),
             cluster.env.process(worker(1, 9002))]
    cluster.run(until=cluster.env.all_of(procs))
    fingerprint = (cluster.env.now, tuple(sorted(done)),
                   cluster.mn.requests_served,
                   tuple(cn.transport.requests_completed
                         for cn in cluster.cns),
                   tuple(cn.transport.total_retries for cn in cluster.cns))
    assert fingerprint == GOLDEN_NO_FAULT == no_fault_fingerprint()


def test_verified_runs_are_bit_identical_across_repeats():
    a = chaos("board-crash", seed=99, ops=300, verify=True)
    b = chaos("board-crash", seed=99, ops=300, verify=True)
    assert a.extras["fingerprint"] == b.extras["fingerprint"]
    assert a.report["bytes_checked"] == b.report["bytes_checked"]


def test_unverified_report_has_no_verification_block():
    result = chaos("link-flap", seed=5, ops=100, verify=False)
    assert result.report == {}
    assert result.problems() == []


def test_verification_layer_reaches_every_component():
    cluster = ClioCluster(num_cns=2, mn_capacity=64 * MB, rack=2,
                          layers=("verification",))
    verifier = cluster.verifier
    for board in cluster.mns:
        assert board.verifier is verifier
        assert board.slow_path.verifier is verifier
    assert [node.verifier for node in cluster.cns] == [verifier, verifier]
    assert cluster.rack.controller.verifier is verifier
    bare = ClioCluster(num_cns=1, mn_capacity=64 * MB)
    assert bare.verifier is None
    assert bare.mn.verifier is None
    assert bare.mn.slow_path.verifier is None
    assert bare.cn(0).verifier is None
