"""The Match-and-Action Table (paper section 3.2, Figure 2).

    "An incoming request arrives at the ASIC and travels through standard
    Ethernet physical and MAC layers and a Match-and-Action-Table (MAT)
    that decides which of the three paths the request should go to based
    on the request type."

The request type alone picks the path, so the MAT is one table from
packet type to path.  A type with no entry (a response, a NACK, a cache
message meant for a CN) is dropped.
"""

from __future__ import annotations

import enum

from repro.net.packet import PacketType


class Path(enum.Enum):
    """Which of the board's three paths handles a request."""

    FAST = "fast"        # ASIC data pipeline
    SLOW = "slow"        # ARM metadata path
    EXTEND = "extend"    # FPGA/ARM offloads


#: Figure 2's table: every request type a board serves, and its path.
PATHS = {
    PacketType.READ: Path.FAST,
    PacketType.WRITE: Path.FAST,
    PacketType.ATOMIC: Path.FAST,
    PacketType.FENCE: Path.FAST,
    PacketType.BATCH: Path.FAST,
    PacketType.ALLOC: Path.SLOW,
    PacketType.FREE: Path.SLOW,
    PacketType.OFFLOAD: Path.EXTEND,
}
