"""Churn-under-oracle: every strategy survives the full checking stack.

The ``alloc-*`` scenarios run the mixed-size churn mix with the shadow
oracle attached and an invariant sweep after every metadata operation —
so a strategy that leaks, double-accounts, or hands out a mapped page
fails here even if the workload completes.  Each strategy must also be
deterministic: same seed => bit-identical fingerprint, flat engine and
partitioned PDES engine included.
"""

import pytest

from repro.verify import ALLOC_STRATEGIES, run_scenario, scenario
from tests.engines import run_partitioned

OPS = 60  # enough to cycle arena refills and spills, small enough for CI


@pytest.mark.parametrize("strategy", ALLOC_STRATEGIES)
def test_churn_verified_clean(strategy):
    result = run_scenario(scenario(f"alloc-{strategy}", ops=OPS), seed=11)
    assert result.ok, result.problems()
    assert result.extras["ops"] == OPS
    assert result.extras["failed"] == 0
    assert result.history_len > OPS  # frees happened too


@pytest.mark.parametrize("strategy", ALLOC_STRATEGIES)
def test_churn_same_seed_bit_identical(strategy):
    point = scenario(f"alloc-{strategy}", mix="small-churn", ops=OPS)
    a = run_scenario(point, seed=3)
    b = run_scenario(point, seed=3)
    assert a.ok and b.ok, (a.problems(), b.problems())
    assert a.extras["fingerprint"] == b.extras["fingerprint"]
    assert a.extras["sim_now_ns"] == b.extras["sim_now_ns"]
    c = run_scenario(point, seed=4)
    assert c.extras["fingerprint"] != a.extras["fingerprint"]


@pytest.mark.parametrize("strategy", ALLOC_STRATEGIES)
def test_churn_flat_matches_partitioned(strategy):
    point = scenario(f"alloc-{strategy}", ops=OPS)
    flat = run_scenario(point, seed=7)
    pdes = run_partitioned(point, seed=7)
    assert flat.ok and pdes.ok, (flat.problems(), pdes.problems())
    assert flat.extras["fingerprint"] == pdes.extras["fingerprint"]
    assert flat.extras["sim_now_ns"] == pdes.extras["sim_now_ns"]


@pytest.mark.parametrize("policy", ["first-fit", "next-fit", "best-fit",
                                    "jump"])
def test_retry_storm_verified_clean_per_policy(policy):
    result = run_scenario(scenario("alloc-freelist", mix="retry-storm",
                                   va_policy=policy, ops=30), seed=2)
    assert result.ok, result.problems()
