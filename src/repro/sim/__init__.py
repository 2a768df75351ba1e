"""Deterministic discrete-event simulation engine.

A small, dependency-free engine in the style of simpy: an
:class:`Environment` drives generator-based :class:`Process` coroutines
through an event queue with integer-nanosecond timestamps.  Determinism is
a design requirement (the benches must be reproducible), so ties are broken
by insertion order and all randomness flows through seeded
:mod:`repro.sim.rng` streams.

The partitioned scheduler (:mod:`repro.sim.partition`) loads on first use:
only ``ClioCluster(partitioned=True)`` runs it.
"""

from repro.sim.core import (
    AllOf,
    Environment,
    Event,
    Process,
    SimulationError,
    Timeout,
)
from repro.sim.resources import Resource, Store
from repro.sim.rng import RandomStream

__all__ = [
    "AllOf",
    "Environment",
    "Event",
    "Partition",
    "PartitionedEnvironment",
    "Process",
    "RandomStream",
    "Resource",
    "SimulationError",
    "Store",
    "Timeout",
]

_PARTITION = ("Partition", "PartitionedEnvironment")


def __getattr__(name: str):
    if name in _PARTITION:
        from repro.sim import partition
        return getattr(partition, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
