"""Rack-scale tier: consistent-hash sharding, ToR/spine fabric wiring,
and elastic board membership with live region migration.

Built on the existing pieces — :mod:`repro.distributed` leases,
:class:`repro.net.Topology` with ``tors=``, :mod:`repro.faults.health`
beliefs — this package is the scale-out layer: a :class:`RackTier` on a
``ClioCluster(rack=...)`` shards the region space across 8–64 CBoards
and keeps serving (and verifying) while boards join, drain, and die.
"""

from repro.rack.membership import DrainError, RackConfig, RackMembership
from repro.rack.shard import ShardRing
from repro.rack.tier import RackTier

__all__ = [
    "DrainError",
    "RackConfig",
    "RackMembership",
    "RackTier",
    "ShardRing",
]
