"""Tests for the CAM TLB with LRU replacement."""

import pytest

from repro.core.addr import Permission
from repro.core.tlb import TLB


def test_miss_then_hit():
    tlb = TLB(entries=4)
    assert tlb.lookup(1, 10) is None
    tlb.insert(1, 10, 99, Permission.READ_WRITE)
    assert tlb.lookup(1, 10) == (99, Permission.READ_WRITE)
    assert tlb.hits == 1 and tlb.misses == 1


def test_lru_eviction_order():
    tlb = TLB(entries=2)
    tlb.insert(1, 1, 11, Permission.READ)
    tlb.insert(1, 2, 22, Permission.READ)
    tlb.lookup(1, 1)                 # 1 becomes MRU
    tlb.insert(1, 3, 33, Permission.READ)  # evicts vpn=2
    assert tlb.lookup(1, 2) is None
    assert tlb.lookup(1, 1) is not None
    assert tlb.lookup(1, 3) is not None


def test_reinsert_updates_value_without_eviction():
    tlb = TLB(entries=2)
    tlb.insert(1, 1, 11, Permission.READ)
    tlb.insert(1, 2, 22, Permission.READ)
    tlb.insert(1, 1, 111, Permission.READ_WRITE)
    assert len(tlb) == 2
    assert tlb.lookup(1, 1) == (111, Permission.READ_WRITE)


def test_pid_isolation():
    tlb = TLB(entries=8)
    tlb.insert(1, 10, 5, Permission.READ)
    assert tlb.lookup(2, 10) is None


def test_invalidate_single():
    tlb = TLB(entries=8)
    tlb.insert(1, 10, 5, Permission.READ)
    assert tlb.invalidate(1, 10)
    assert not tlb.invalidate(1, 10)
    assert tlb.lookup(1, 10) is None


def test_flush():
    tlb = TLB(entries=8)
    tlb.insert(1, 1, 0, Permission.READ)
    tlb.flush()
    assert len(tlb) == 0


def test_hit_rate():
    tlb = TLB(entries=4)
    tlb.insert(1, 1, 0, Permission.READ)
    tlb.lookup(1, 1)
    tlb.lookup(1, 2)
    assert tlb.hit_rate == pytest.approx(0.5)


def test_zero_capacity_rejected():
    with pytest.raises(ValueError):
        TLB(0)


def test_capacity_never_exceeded():
    tlb = TLB(entries=16)
    for vpn in range(1000):
        tlb.insert(1, vpn, vpn, Permission.READ)
        assert len(tlb) <= 16
