"""A scenario on the partitioned engine, for the flat-vs-partitioned tests.

A scenario names its engine in ``Scenario.cluster``, the ``ClioCluster``
keyword arguments, like any other part of its cluster's shape.  The
``alloc-*`` rows read no ``Scenario.cluster``: their workload runs
:func:`repro.workloads.churn.run_churn`, which builds its own cluster
through ``repro.cluster``, so the engine is injected there too.
"""

from dataclasses import replace
from functools import partial
from unittest.mock import patch

from repro.cluster import ClioCluster
from repro.verify import run_scenario


def run_partitioned(point, *, seed: int):
    """``run_scenario(point, seed=seed)`` with every cluster it builds on
    the partitioned engine."""
    point = replace(point, cluster={**point.cluster, "partitioned": True})
    with patch("repro.cluster.ClioCluster",
               partial(ClioCluster, partitioned=True)):
        return run_scenario(point, seed=seed)
