"""Tests for the overflow-free hash page table."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.addr import Permission
from repro.core.page_table import HashPageTable, PageTableFullError


def make_table(pages=512, k=4, over=2.0):
    return HashPageTable(physical_pages=pages, slots_per_bucket=k,
                         overprovision=over)


def test_table_sizing_follows_overprovision():
    table = make_table(pages=512, k=4, over=2.0)
    assert table.total_slots >= 1024
    assert table.num_buckets == table.total_slots // 4


def test_insert_lookup_roundtrip():
    table = make_table()
    table.insert(pid=1, vpn=10, permission=Permission.READ_WRITE)
    entry = table.lookup(1, 10)
    assert entry is not None
    assert entry.pid == 1 and entry.vpn == 10
    assert not entry.present


def test_lookup_missing_returns_none():
    table = make_table()
    assert table.lookup(1, 999) is None


def test_duplicate_insert_rejected():
    table = make_table()
    table.insert(1, 10, Permission.READ)
    with pytest.raises(ValueError):
        table.insert(1, 10, Permission.READ)


def test_same_vpn_different_pid_coexist():
    table = make_table()
    table.insert(1, 10, Permission.READ)
    table.insert(2, 10, Permission.WRITE)
    assert table.lookup(1, 10).permission == Permission.READ
    assert table.lookup(2, 10).permission == Permission.WRITE


def test_set_present_maps_physical_page():
    table = make_table()
    table.insert(1, 10, Permission.READ_WRITE)
    entry = table.set_present(1, 10, ppn=77)
    assert entry.present and entry.ppn == 77


def test_set_present_twice_rejected():
    table = make_table()
    table.insert(1, 10, Permission.READ_WRITE)
    table.set_present(1, 10, 77)
    with pytest.raises(ValueError):
        table.set_present(1, 10, 78)


def test_set_present_on_missing_pte_rejected():
    table = make_table()
    with pytest.raises(KeyError):
        table.set_present(1, 10, 77)


def test_remove_returns_entry_and_frees_slot():
    table = make_table()
    table.insert(1, 10, Permission.READ_WRITE)
    table.set_present(1, 10, 5)
    entry = table.remove(1, 10)
    assert entry.ppn == 5
    assert table.lookup(1, 10) is None
    assert table.entry_count == 0


def test_remove_missing_rejected():
    table = make_table()
    with pytest.raises(KeyError):
        table.remove(1, 10)


def test_can_insert_detects_bucket_overflow():
    table = HashPageTable(physical_pages=4, slots_per_bucket=2,
                          overprovision=1.0)
    # With 4 buckets of 2 slots, find 3 vpns hashing to the same bucket.
    target = table.bucket_of(1, 0)
    same_bucket = [vpn for vpn in range(10000)
                   if table.bucket_of(1, vpn) == target][:3]
    assert len(same_bucket) == 3
    assert table.can_insert(1, same_bucket[:2])
    assert not table.can_insert(1, same_bucket)


def test_can_insert_rejects_already_mapped():
    table = make_table()
    table.insert(1, 10, Permission.READ)
    assert not table.can_insert(1, [10])


def test_bypassing_check_raises_on_overflow():
    table = HashPageTable(physical_pages=4, slots_per_bucket=1,
                          overprovision=1.0)
    target = table.bucket_of(1, 0)
    same = [vpn for vpn in range(10000)
            if table.bucket_of(1, vpn) == target][:2]
    table.insert(1, same[0], Permission.READ)
    with pytest.raises(PageTableFullError):
        table.insert(1, same[1], Permission.READ)


def test_footprint_is_small_fraction_of_memory():
    # Paper: with 4 MB pages the hash table consumes ~0.4% of physical memory.
    pages = (1 << 40) // (4 << 20)  # 1 TB of 4 MB pages
    table = HashPageTable(physical_pages=pages, slots_per_bucket=4,
                          overprovision=2.0)
    fraction = table.footprint_bytes(pte_bytes=16) / (1 << 40)
    assert fraction < 0.005


def test_entries_for_pid():
    table = make_table()
    table.insert(1, 1, Permission.READ)
    table.insert(1, 2, Permission.READ)
    table.insert(2, 1, Permission.READ)
    assert len(table.entries_for_pid(1)) == 2


def test_invalid_construction():
    with pytest.raises(ValueError):
        HashPageTable(0)


@given(st.lists(st.tuples(st.integers(0, 50), st.integers(0, 2000)),
                min_size=1, max_size=200, unique=True))
@settings(max_examples=50)
def test_insert_remove_consistency_property(keys):
    """After inserting a set and removing half, lookups match exactly."""
    table = HashPageTable(physical_pages=4096, slots_per_bucket=8,
                          overprovision=4.0)
    inserted = []
    for pid, vpn in keys:
        if table.can_insert(pid, [vpn]):
            table.insert(pid, vpn, Permission.READ_WRITE)
            inserted.append((pid, vpn))
    removed = inserted[::2]
    for pid, vpn in removed:
        table.remove(pid, vpn)
    kept = set(inserted) - set(removed)
    for pid, vpn in kept:
        assert table.lookup(pid, vpn) is not None
    for pid, vpn in removed:
        assert table.lookup(pid, vpn) is None
    assert table.entry_count == len(kept)
