"""End-to-end chaos scenarios plus the no-fault golden regression.

The acceptance bar for the fault subsystem:

* a scripted MN crash/restart mid-workload completes with zero hung
  requests and post-restart throughput within 10% of pre-crash;
* same-seed chaos runs are bit-identical;
* a cluster with *no* faults armed produces exactly the same timestamps
  and counters as before the subsystem existed (golden fingerprint).
"""

import pytest

from repro.cluster import ClioCluster
from repro.core.addr import Permission
from repro.net.packet import PacketType
from repro.verify import CHAOS_SCRIPTS, run_scenario, scenario

MB = 1 << 20

#: Golden no-fault fingerprint, captured on the pre-fault-subsystem tree
#: (seed 1234, 2 CNs, pinned PIDs 9001/9002, 1 alloc + 120 write/read
#: pairs each).  If this changes, the fault subsystem perturbed the
#: no-fault simulation — which it must never do.
GOLDEN_NO_FAULT = (600478, (598288, 600478), 482, (241, 241), (0, 0))


def no_fault_fingerprint(partitioned=False):
    cluster = ClioCluster(seed=1234, num_cns=2, mn_capacity=256 * MB,
                          partitioned=partitioned)
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
    return (cluster.env.now, tuple(sorted(done)),
            cluster.mn.requests_served,
            tuple(cn.transport.requests_completed for cn in cluster.cns),
            tuple(cn.transport.total_retries for cn in cluster.cns))


def test_no_fault_run_matches_golden_fingerprint():
    assert no_fault_fingerprint() == GOLDEN_NO_FAULT


def chaos(schedule, seed, **sizes):
    """One unverified chaos run's extras (verification is passive)."""
    result = run_scenario(scenario("chaos", schedule=schedule, verify=False,
                                   **sizes), seed=seed)
    assert result.problems() == []    # no hung worker, counters balance
    return result.extras


def test_board_crash_scenario_recovers():
    extras = chaos("board-crash", seed=1234)
    assert extras["finished"], "workers hung"
    statuses = [op[-1] for op in extras["ops"]]
    # The crash window produced typed failures, not hangs.
    assert statuses.count("ok") < len(statuses)
    assert set(statuses) <= {"ok", "request_failed", "remote_error"}
    # Acceptance: post-restart throughput within 10% of pre-crash.
    tput = extras["recovery"]
    assert tput is not None
    assert 0.9 <= tput["recovery_ratio"] <= 1.1
    mn = extras["boards"]["mn0"]
    assert mn["crashes"] == 1 and mn["restarts"] == 1
    assert mn["packets_dropped_dead"] > 0


def test_board_crash_scenario_is_bit_identical():
    a = chaos("board-crash", seed=77)
    b = chaos("board-crash", seed=77)
    assert a["fingerprint"] == b["fingerprint"]
    c = chaos("board-crash", seed=78)
    assert a["fingerprint"] != c["fingerprint"]


@pytest.mark.parametrize("schedule", sorted(CHAOS_SCRIPTS))
def test_every_scenario_upholds_invariants(schedule):
    extras = chaos(schedule, seed=42, ops=400)
    assert extras["finished"]
    # Every op settled one way or the other.
    assert len(extras["ops"]) == 2 * 400


def test_loss_burst_masked_by_retransmission():
    extras = chaos("loss-burst", seed=9)
    total_retries = sum(c["total_retries"] for c in extras["cns"].values())
    assert total_retries > 0          # the burst really bit
    assert extras["finished"]


def test_unknown_scenario_rejected():
    with pytest.raises(ValueError):
        scenario("chaos", schedule="thermonuclear")
