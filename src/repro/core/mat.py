"""The Match-and-Action Table (paper section 3.2, Figure 2).

    "An incoming request arrives at the ASIC and travels through standard
    Ethernet physical and MAC layers and a Match-and-Action-Table (MAT)
    that decides which of the three paths the request should go to based
    on the request type."

The MAT is a small TCAM-style rule table: each rule matches header
fields (request type, optionally PID ranges) and names an action — which
path handles the packet, or drop.  CBoard installs the three default
path rules at boot; operators (or tests) can install additional rules,
e.g. to quarantine a misbehaving PID or steer a custom request type.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

from repro.net.packet import ClioHeader, PacketType


class Path(enum.Enum):
    """Where a matched packet goes."""

    FAST = "fast"        # ASIC data pipeline
    SLOW = "slow"        # ARM metadata path
    EXTEND = "extend"    # FPGA/ARM offloads
    DROP = "drop"        # discarded (filtered)


#: Bound once: every packet is classified, and on CPython 3.11 a
#: ``Path.DROP`` load takes ``EnumType.__getattr__``'s slow hook.
_DROP = Path.DROP


@dataclass(frozen=True)
class MatchRule:
    """One TCAM entry: all specified fields must match.

    ``packet_type`` of None is a wildcard; a PID range of (None, None)
    matches every PID.  Lower ``priority`` wins.
    """

    action: Path
    packet_type: Optional[PacketType] = None
    pid_min: Optional[int] = None
    pid_max: Optional[int] = None
    priority: int = 100

    def matches(self, header: ClioHeader) -> bool:
        if self.packet_type is not None and header.packet_type is not self.packet_type:
            return False
        if self.pid_min is not None and header.pid < self.pid_min:
            return False
        if self.pid_max is not None and header.pid > self.pid_max:
            return False
        return True


#: The boot-time rule set every CBoard installs (paper Figure 2).
DEFAULT_RULES = (
    MatchRule(action=Path.FAST, packet_type=PacketType.READ),
    MatchRule(action=Path.FAST, packet_type=PacketType.WRITE),
    MatchRule(action=Path.FAST, packet_type=PacketType.ATOMIC),
    MatchRule(action=Path.FAST, packet_type=PacketType.FENCE),
    MatchRule(action=Path.FAST, packet_type=PacketType.BATCH),
    MatchRule(action=Path.SLOW, packet_type=PacketType.ALLOC),
    MatchRule(action=Path.SLOW, packet_type=PacketType.FREE),
    MatchRule(action=Path.EXTEND, packet_type=PacketType.OFFLOAD),
)


class MatchActionTable:
    """Priority-ordered rule table with bounded capacity (it is on-chip)."""

    def __init__(self, capacity: int = 64, install_defaults: bool = True):
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.capacity = capacity
        self._rules: list[MatchRule] = []
        self.lookups = 0
        self.drops = 0
        if install_defaults:
            for rule in DEFAULT_RULES:
                self.install(rule)

    def __len__(self) -> int:
        return len(self._rules)

    def install(self, rule: MatchRule) -> None:
        """Add a rule; stable order within equal priorities."""
        if len(self._rules) >= self.capacity:
            raise ValueError(f"MAT full ({self.capacity} rules)")
        self._rules.append(rule)
        self._rules.sort(key=lambda entry: entry.priority)

    def remove(self, rule: MatchRule) -> bool:
        try:
            self._rules.remove(rule)
            return True
        except ValueError:
            return False

    def classify(self, header: ClioHeader) -> Path:
        """First matching rule's action; unmatched packets drop."""
        self.lookups += 1
        for rule in self._rules:
            if rule.matches(header):
                if rule.action is _DROP:
                    self.drops += 1
                return rule.action
        self.drops += 1
        return _DROP
