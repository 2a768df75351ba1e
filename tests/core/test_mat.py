"""Tests for the Match-and-Action Table."""

import pytest

from repro.core.mat import DEFAULT_RULES, MatchActionTable, MatchRule, Path
from repro.net.packet import ClioHeader, PacketType

MB = 1 << 20


def header(packet_type=PacketType.READ, pid=1):
    return ClioHeader(src="cn0", dst="mn0", request_id=1,
                      packet_type=packet_type, pid=pid)


def test_default_rules_route_three_paths():
    mat = MatchActionTable()
    assert mat.classify(header(PacketType.READ)) is Path.FAST
    assert mat.classify(header(PacketType.WRITE)) is Path.FAST
    assert mat.classify(header(PacketType.ATOMIC)) is Path.FAST
    assert mat.classify(header(PacketType.FENCE)) is Path.FAST
    assert mat.classify(header(PacketType.ALLOC)) is Path.SLOW
    assert mat.classify(header(PacketType.FREE)) is Path.SLOW
    assert mat.classify(header(PacketType.OFFLOAD)) is Path.EXTEND


def test_unmatched_types_drop():
    mat = MatchActionTable()
    assert mat.classify(header(PacketType.RESPONSE)) is Path.DROP
    assert mat.classify(header(PacketType.NACK)) is Path.DROP
    assert mat.drops == 2


def test_priority_rule_wins():
    mat = MatchActionTable()
    # Quarantine a PID range ahead of the defaults.
    mat.install(MatchRule(action=Path.DROP, pid_min=100, pid_max=200,
                          priority=1))
    assert mat.classify(header(PacketType.READ, pid=150)) is Path.DROP
    assert mat.classify(header(PacketType.READ, pid=99)) is Path.FAST
    assert mat.classify(header(PacketType.READ, pid=201)) is Path.FAST


def test_wildcard_type_rule():
    mat = MatchActionTable(install_defaults=False)
    mat.install(MatchRule(action=Path.EXTEND))
    assert mat.classify(header(PacketType.READ)) is Path.EXTEND
    assert mat.classify(header(PacketType.FREE)) is Path.EXTEND


def test_remove_rule():
    mat = MatchActionTable(install_defaults=False)
    rule = MatchRule(action=Path.FAST, packet_type=PacketType.READ)
    mat.install(rule)
    assert mat.remove(rule)
    assert not mat.remove(rule)
    assert mat.classify(header(PacketType.READ)) is Path.DROP


def test_capacity_bounded():
    mat = MatchActionTable(capacity=len(DEFAULT_RULES))
    with pytest.raises(ValueError):
        mat.install(MatchRule(action=Path.DROP))
    with pytest.raises(ValueError):
        MatchActionTable(capacity=0)


def test_lookup_counter():
    mat = MatchActionTable()
    for _ in range(5):
        mat.classify(header())
    assert mat.lookups == 5


def test_board_quarantine_via_mat():
    """Installing a DROP rule on a live board silences that PID."""
    from repro.clib.client import RemoteAccessError
    from repro.cluster import ClioCluster
    from repro.transport.clib_transport import RequestFailed

    cluster = ClioCluster(mn_capacity=256 * MB)
    good = cluster.cn(0).process("mn0").thread()
    bad = cluster.cn(0).process("mn0").thread()
    outcome = {}

    def app():
        va_good = yield from good.ralloc(64)
        va_bad = yield from bad.ralloc(64)
        # Quarantine the second process at the MAT.
        from repro.core.mat import MatchRule, Path
        cluster.mn.mat.install(MatchRule(
            action=Path.DROP, pid_min=bad.process.pid,
            pid_max=bad.process.pid, priority=1))
        yield from good.rwrite(va_good, b"still fine")
        outcome["good"] = yield from good.rread(va_good, 10)
        try:
            yield from bad.rwrite(va_bad, b"dropped")
            outcome["bad"] = "succeeded"
        except RequestFailed:
            outcome["bad"] = "failed"

    cluster.run(until=cluster.env.process(app()))
    assert outcome["good"] == b"still fine"
    assert outcome["bad"] == "failed"
