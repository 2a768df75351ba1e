"""CN-side network transport (paper section 4.4).

The MN is transportless, so everything a reliable transport normally does
lives here at the compute node: request/response matching (responses act
as ACKs), per-request retry with fresh request IDs, delay-based AIMD
congestion control with a sub-packet floor, and incast control over
expected response bytes.
"""

from repro.transport.congestion import (
    CC_ALGORITHMS,
    CongestionController,
    IncastController,
    StaticWindowController,
    TimelyController,
    make_congestion_controller,
)
from repro.transport.ordering import DependencyTracker
from repro.transport.clib_transport import (
    RequestFailed,
    RequestOutcome,
    Transport,
)

__all__ = [
    "CC_ALGORITHMS",
    "CongestionController",
    "DependencyTracker",
    "IncastController",
    "RequestFailed",
    "RequestOutcome",
    "StaticWindowController",
    "TimelyController",
    "Transport",
    "make_congestion_controller",
]
