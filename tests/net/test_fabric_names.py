"""The fabric's instrument and link names, pinned as a set.

``benchmarks/e2e/workloads.py`` parses these names (``link.<node>->...``,
``*.packets_forwarded``, ``rack.*``) and `repro metrics` readers key on
them, so a change to how the fabric is built is judged by a list it did
not write.  Recorded at the commit before ``Topology`` and the rack
fabric became one class, for a star, a two-ToR rack with a spare, and a
one-ToR rack.  The two rack digests were re-pinned once since, when the
rack controller's ``tenant.quota_rejections`` counter went: each is the
sha256 of the earlier sorted keys minus that one key.
"""

import hashlib

import pytest

from repro.cluster import ClioCluster
from repro.rack import RackConfig

_LINK_FIELDS = ("bytes_sent", "packets_corrupted", "packets_dropped",
                "packets_dropped_down", "packets_sent", "queue_depth")

#: name -> (cluster kwargs, ``all_links()`` names in order, the switch
#: scopes' keys, sha256 of every sorted registry key joined by newlines).
FABRICS = {
    "star": (
        lambda: dict(num_cns=2),
        ["cn0->tor", "cn1->tor", "mn0->tor",
         "tor->cn0", "tor->cn1", "tor->mn0"],
        ["switch.tor.packets_forwarded", "switch.tor.queue.cn0.depth",
         "switch.tor.queue.cn1.depth", "switch.tor.queue.mn0.depth",
         "switch.tor.unroutable"],
        "5d4e7665d066db988fe6b98af6decb7faae69e7aa614b945d85acb0969c0a57b"),
    "rack": (
        lambda: dict(num_cns=4,
                     rack=RackConfig(boards=4, tors=2, spares=1)),
        ["cn0->tor0", "cn1->tor1", "cn2->tor0", "cn3->tor1",
         "mn0->tor0", "mn1->tor1", "mn2->tor0", "mn3->tor1", "mn4->tor0",
         "tor0->cn0", "tor1->cn1", "tor0->cn2", "tor1->cn3",
         "tor0->mn0", "tor1->mn1", "tor0->mn2", "tor1->mn3", "tor0->mn4",
         "tor0->spine", "spine->tor0", "tor1->spine", "spine->tor1"],
        ["rack.spine.packets_forwarded", "rack.spine.unroutable",
         "rack.tor0.packets_forwarded", "rack.tor0.queue.cn0.depth",
         "rack.tor0.queue.cn2.depth", "rack.tor0.queue.mn0.depth",
         "rack.tor0.queue.mn2.depth", "rack.tor0.queue.mn4.depth",
         "rack.tor0.unroutable", "rack.tor1.packets_forwarded",
         "rack.tor1.queue.cn1.depth", "rack.tor1.queue.cn3.depth",
         "rack.tor1.queue.mn1.depth", "rack.tor1.queue.mn3.depth",
         "rack.tor1.unroutable"],
        "4afaab305e97331302963c4c1e1c9cf131e887c34eaae6ec1629c8b485efccf1"),
    "one_tor": (
        lambda: dict(rack=RackConfig(boards=2, tors=1)),
        ["cn0->tor0", "mn0->tor0", "mn1->tor0",
         "tor0->cn0", "tor0->mn0", "tor0->mn1",
         "tor0->spine", "spine->tor0"],
        ["rack.spine.packets_forwarded", "rack.spine.unroutable",
         "rack.tor0.packets_forwarded", "rack.tor0.queue.cn0.depth",
         "rack.tor0.queue.mn0.depth", "rack.tor0.queue.mn1.depth",
         "rack.tor0.unroutable"],
        "ecc39e410a2071847e2181cd746f6e3e34c2294a121dfd0179999b77606e5000"),
}


@pytest.mark.parametrize("fabric", FABRICS)
def test_fabric_names_are_pinned(fabric):
    kwargs, links, switch_keys, digest = FABRICS[fabric]
    cluster = ClioCluster(**kwargs())
    assert [link.name for link in cluster.topology.all_links()] == links
    keys = sorted(cluster.metrics.snapshot())
    assert [key for key in keys if key.startswith("link.")] == sorted(
        f"link.{link}.{field}" for link in links for field in _LINK_FIELDS)
    assert [key for key in keys if key.startswith(
        ("switch.", "rack.tor", "rack.spine"))] == switch_keys
    # Everything else in the registry (boards, transports, the rack
    # tier's own counters) rides along in the hash.
    assert hashlib.sha256("\n".join(keys).encode()).hexdigest() == digest
