"""Rack-scale tier: consistent-hash sharding, ToR/spine fabric wiring,
and elastic board membership with live region migration.

Built on the existing pieces — :mod:`repro.distributed` leases,
:class:`repro.net.Topology` with ``tors=``, :mod:`repro.faults.health`
beliefs — this package is the scale-out layer: the one
:class:`RackTier` a ``ClioCluster(rack=...)`` builds shards the region
space across 8–64 CBoards over a :class:`ShardRing` and keeps serving
(and verifying) while boards join, drain, and die.  The controller's
leases are the only record of placement.
"""

from repro.rack.membership import DrainError, RackConfig, RackTier
from repro.rack.shard import ShardRing

__all__ = [
    "DrainError",
    "RackConfig",
    "RackTier",
    "ShardRing",
]
