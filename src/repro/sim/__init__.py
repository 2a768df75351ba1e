"""Deterministic discrete-event simulation engine.

A small, dependency-free engine in the style of simpy: an
:class:`Environment` drives generator-based :class:`Process` coroutines
through an event queue with integer-nanosecond timestamps.  Determinism is
a design requirement (the benches must be reproducible), so ties are broken
by insertion order and all randomness flows through seeded
:mod:`repro.sim.rng` streams.
"""

from repro.sim.core import (
    AllOf,
    AnyOf,
    Environment,
    Event,
    Interrupt,
    Process,
    SimulationError,
    Timeout,
)
from repro.sim.partition import Channel, Partition, PartitionedEnvironment
from repro.sim.resources import Container, Resource, Store
from repro.sim.rng import RandomStream

__all__ = [
    "AllOf",
    "AnyOf",
    "Channel",
    "Container",
    "Environment",
    "Event",
    "Interrupt",
    "Partition",
    "PartitionedEnvironment",
    "Process",
    "RandomStream",
    "Resource",
    "SimulationError",
    "Store",
    "Timeout",
]
