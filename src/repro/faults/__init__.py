"""repro.faults — deterministic fault injection and failure recovery.

Faults are data: a seeded :class:`FaultSchedule` of timed events, armed
against a live cluster by a :class:`FaultInjector`, with failure
*detection* modeled separately by the heartbeat :class:`HealthMonitor`.
The canned chaos runs are the ``chaos`` row of the scenario registry,
:mod:`repro.verify.scenarios`, with its fault scripts in
``CHAOS_SCRIPTS``.
"""

from repro.faults.health import HealthMonitor, HealthTransition
from repro.faults.injector import AppliedFault, FaultInjector
from repro.faults.schedule import FaultEvent, FaultKind, FaultSchedule

__all__ = [
    "AppliedFault",
    "FaultEvent",
    "FaultInjector",
    "FaultKind",
    "FaultSchedule",
    "HealthMonitor",
    "HealthTransition",
]
