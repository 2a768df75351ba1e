"""Ethernet fabric model: packets, links, switches and the fabric.

The model is deliberately simple — serialization + propagation +
output-queueing per link, with seeded loss/corruption injection — because
that is exactly the behaviour Clio's CN-side transport must cope with
(section 4.4): no ordering, no reliability, congestion visible as RTT
inflation, incast visible as switch-queue growth.
"""

from repro.net.link import Link
from repro.net.packet import ClioHeader, Packet, PacketType, fragment_payload
from repro.net.switch import Switch, Topology

__all__ = [
    "ClioHeader",
    "Link",
    "Packet",
    "PacketType",
    "Switch",
    "Topology",
    "fragment_payload",
]
