"""Tests for the consistent-hash shard ring."""

from collections import Counter

import pytest

from repro.rack.shard import VNODES, ShardRing


def ring_with(names):
    ring = ShardRing()
    for name in names:
        ring.add_board(name)
    return ring


def test_empty_ring_rejects_lookups():
    ring = ShardRing()
    assert len(ring) == 0
    with pytest.raises(LookupError):
        ring.home(1)
    assert list(ring.preference(1)) == []


def test_membership_is_strict():
    ring = ring_with(["mn0"])
    with pytest.raises(ValueError):
        ring.add_board("mn0")
    with pytest.raises(KeyError):
        ring.remove_board("mn9")
    assert "mn0" in ring
    assert "mn9" not in ring


def test_layout_is_a_pure_function_of_membership():
    """Two rings with the same boards agree on every key, regardless of
    insertion order — layout depends on hashes, not history."""
    a = ring_with([f"mn{i}" for i in range(8)])
    b = ring_with([f"mn{i}" for i in reversed(range(8))])
    for key in range(500):
        assert a.home(key) == b.home(key)


def test_removal_only_remaps_the_departed_boards_keys():
    """The consistent-hashing contract: taking a board out moves only
    the keys it owned; everyone else's keys stay put."""
    ring = ring_with([f"mn{i}" for i in range(8)])
    before = {key: ring.home(key) for key in range(1000)}
    ring.remove_board("mn3")
    for key, owner in before.items():
        if owner == "mn3":
            assert ring.home(key) != "mn3"
        else:
            assert ring.home(key) == owner


def test_preference_walk_is_distinct_and_starts_at_home():
    ring = ring_with([f"mn{i}" for i in range(6)])
    for key in range(50):
        walk = list(ring.preference(key))
        assert walk[0] == ring.home(key)
        assert len(walk) == len(set(walk)) == 6
    excluded = {"mn0", "mn1"}
    for key in range(50):
        walk = list(ring.preference(key, exclude=excluded))
        assert excluded.isdisjoint(walk)
        assert len(walk) == 4


def test_arc_share_sums_to_one_and_balances():
    boards = [f"mn{i}" for i in range(8)]
    ring = ring_with(boards)
    keys = 4096
    homes = Counter(ring.home(key) for key in range(keys))
    assert sorted(homes) == boards
    assert sum(homes.values()) == keys
    # VNODES points per board keep the spread loose but bounded.
    assert all(0.02 < count / keys < 0.35 for count in homes.values())


def test_stats_shape():
    ring = ring_with(["mn0", "mn1"])
    assert len(ring) == 2
    assert len(ring._points) == 2 * VNODES
    assert ring.membership_changes == 2
