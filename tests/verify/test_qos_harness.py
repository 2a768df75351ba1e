"""QoS acceptance: noisy-neighbor isolation + golden invariance.

Two properties ride on the noisy-neighbor harness scenario:

* isolation — with shaping the victim's p99 inflation stays under the
  1.5x bar; without it the same aggressors blow the victim's tail
  several-fold (the leak the bar exists to document);
* determinism — the scenario's op-log digest is bit-identical flat vs
  partitioned, and merely *configuring* tenants (without enabling
  shaping) moves none of the pre-existing golden fingerprints.
"""

import pytest

from repro.verify import run_scenario, scenario
from tests.engines import run_partitioned


@pytest.fixture(scope="module")
def shaped():
    return run_scenario(scenario("qos-shaped"), seed=7)


@pytest.fixture(scope="module")
def unshaped():
    return run_scenario(scenario("qos-unshaped"), seed=7)


def test_oracle_and_invariants_clean(shaped, unshaped):
    assert shaped.ok, shaped.problems()
    assert unshaped.ok, unshaped.problems()


def test_shaping_holds_the_isolation_bar(shaped):
    assert shaped.extras["victim_p99_inflation"] <= 1.5


def test_unshaped_victim_tail_blows_up(unshaped):
    assert unshaped.extras["victim_p99_inflation"] >= 2.0


def test_shaper_actually_shaped(shaped):
    shaper = shaped.extras["shapers"]["mn0"]
    assert shaper["tenant.aggressor.shaped"] > 0
    assert shaper["tenant.victim.shaped"] == 0


def test_unshaped_run_has_no_shapers(unshaped):
    assert unshaped.extras["shapers"] == {}


def test_flat_matches_partitioned(shaped):
    partitioned = run_partitioned(scenario("qos-shaped"), seed=7)
    assert partitioned.extras["fingerprint"] == shaped.extras["fingerprint"]
    assert partitioned.ok


# -- golden invariance: configured-but-disabled QoS is inert ------------------


def test_configured_qos_keeps_no_fault_golden():
    """A cluster whose params carry tenants (but no "qos" layer) must
    reproduce the pre-QoS golden bit-for-bit: configuration alone
    schedules no events and draws no RNG."""
    from dataclasses import replace

    from repro.core.addr import Permission
    from repro.cluster import ClioCluster
    from repro.net.packet import PacketType
    from repro.params import ClioParams, MB, QoSParams, TenantConfig
    from tests.faults.test_chaos import GOLDEN_NO_FAULT

    params = replace(ClioParams.prototype(), qos=QoSParams(tenants=(
        TenantConfig(name="a", clients=("cn0",), share=0.5),
        TenantConfig(name="b", clients=("cn1",), share=0.5),
    )))
    cluster = ClioCluster(params=params, seed=1234, num_cns=2,
                          mn_capacity=256 * MB)
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
    assert fingerprint == GOLDEN_NO_FAULT


def test_goldens_unchanged_with_qos_types_in_tree():
    """The imported goldens themselves: already covered by their own
    test files, re-asserted here so a QoS regression that moves one
    fails in the QoS suite too."""
    from tests.cache.test_cache import GOLDEN_CACHED, cached_fingerprint
    from tests.clib.test_batching import GOLDEN_BATCHED, batched_fingerprint

    assert batched_fingerprint() == GOLDEN_BATCHED
    assert cached_fingerprint() == GOLDEN_CACHED
