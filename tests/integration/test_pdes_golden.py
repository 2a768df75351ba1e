"""The partitioned engine against the committed golden fingerprints.

The determinism contract in one sentence: building the cluster on the
partitioned engine and running it with the single-process scheduler is
*bit-identical* to the flat engine — so the golden fingerprints pinned
before the PDES refactor must keep holding verbatim, with faults and
without.
"""

from repro.verify import run_scenario, scenario
from tests.engines import run_partitioned
from tests.faults.test_chaos import GOLDEN_NO_FAULT, no_fault_fingerprint


def test_partitioned_no_fault_run_matches_golden_fingerprint():
    assert no_fault_fingerprint(partitioned=True) == GOLDEN_NO_FAULT


def test_partitioned_chaos_fingerprint_matches_flat():
    """Crash/restart, retry storms, epoch fencing — all of it must land
    on the same event sequence under per-board wheels."""
    point = scenario("chaos", schedule="board-crash", ops=250, verify=False)
    flat = run_scenario(point, seed=1234)
    part = run_partitioned(point, seed=1234)
    assert part.extras["fingerprint"] == flat.extras["fingerprint"]


def test_partitioned_cluster_reports_engine_shape():
    """A partitioned cluster really is partitioned: the switch tier, every
    board and every CN own a wheel, and each node's components schedule
    onto its own."""
    from repro.cluster import ClioCluster
    from repro.sim import Partition
    from repro.verify.runner import verify_params

    MB = 1 << 20
    cluster = ClioCluster(params=verify_params(), seed=1, num_cns=2,
                          mn_capacity=256 * MB, partitioned=True)
    env = cluster.env
    assert {part.name for part in env.partitions} == {
        "switch", "mn0", "cn0", "cn1"}
    assert cluster.topology.switches[0].env is env.partition("switch")
    for board in cluster.mns:
        own = env.partition(board.name)
        assert isinstance(own, Partition) and board.env is own
        for component in (board.fast_path, board.slow_path,
                          board.extend_path, board.atomic_unit):
            assert component.env is own
    for node in cluster.cns:
        own = env.partition(node.name)
        assert node.env is own and node.transport.env is own
