"""Tests for the consistent-hash shard ring and its override directory."""

from collections import Counter

import pytest

from repro.rack.shard import ShardRing


def ring_with(names, vnodes=32):
    ring = ShardRing(vnodes=vnodes)
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
    with pytest.raises(ValueError):
        ShardRing(vnodes=0)


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


def test_override_directory_tracks_off_home_placements_only():
    ring = ring_with(["mn0", "mn1", "mn2"])
    key = 7
    home = ring.home(key)
    away = next(b for b in ring.boards if b != home)
    ring.record_placement(key, away)
    assert ring.override_for(key) == away
    assert ring.locate(key) == away
    # Landing back home erases the entry: the directory stays minimal.
    ring.record_placement(key, home)
    assert ring.override_for(key) is None
    assert ring.locate(key) == home
    ring.record_placement(key, away)
    ring.clear_override(key)
    assert ring.override_count == 0


def test_refresh_overrides_tracks_arc_moves():
    """Ring mutations move arcs; refresh recomputes exactly the off-home
    set from the authoritative placement map."""
    ring = ring_with([f"mn{i}" for i in range(4)])
    placements = {key: ring.home(key) for key in range(200)}
    assert ring.override_count == 0
    ring.remove_board("mn2")
    ring.refresh_overrides(placements)
    # Every region that lived on mn2 is now a stray; nobody else is.
    strays = {key for key, board in placements.items() if board == "mn2"}
    assert set(ring.overrides()) == strays
    assert all(board == "mn2" for board in ring.overrides().values())


def test_arc_share_sums_to_one_and_balances():
    boards = [f"mn{i}" for i in range(8)]
    ring = ring_with(boards, vnodes=64)
    keys = 4096
    homes = Counter(ring.home(key) for key in range(keys))
    assert sorted(homes) == boards
    assert sum(homes.values()) == keys
    # 64 vnodes per board keeps the spread loose but bounded.
    assert all(0.02 < count / keys < 0.35 for count in homes.values())


def test_stats_shape():
    ring = ring_with(["mn0", "mn1"], vnodes=16)
    ring.record_placement(5, "mn0" if ring.home(5) != "mn0" else "mn1")
    stats = ring.stats()
    assert stats["boards"] == 2
    assert stats["points"] == 32
    assert stats["overrides"] == 1
    assert stats["membership_changes"] == 2
