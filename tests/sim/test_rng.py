"""Tests for seeded random streams and the Zipf table."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.rng import RandomStream, ZipfTable


def test_same_seed_same_draws():
    a = RandomStream(7, "link")
    b = RandomStream(7, "link")
    assert [a.uniform_int(0, 100) for _ in range(20)] == [
        b.uniform_int(0, 100) for _ in range(20)]


def test_different_names_independent():
    a = RandomStream(7, "link")
    b = RandomStream(7, "switch")
    assert [a.uniform_int(0, 10 ** 9) for _ in range(5)] != [
        b.uniform_int(0, 10 ** 9) for _ in range(5)]


def test_fork_is_deterministic():
    root = RandomStream(42)
    x = root.fork("child").uniform(0, 1)
    y = RandomStream(42).fork("child").uniform(0, 1)
    assert x == y


def test_chance_extremes():
    stream = RandomStream(1)
    assert not stream.chance(0.0)
    assert stream.chance(1.0)


def test_zipf_table_skews_to_head():
    table = ZipfTable(1000, theta=0.99)
    stream = RandomStream(3, "zipf")
    draws = [table.draw(stream.uniform()) for _ in range(5000)]
    head = sum(1 for d in draws if d < 10)
    # With theta=0.99 the top-10 of 1000 keys take a large share.
    assert head > len(draws) * 0.25


def test_zipf_theta_zero_is_uniformish():
    table = ZipfTable(100, theta=0.0)
    stream = RandomStream(5, "zipf-flat")
    draws = [table.draw(stream.uniform()) for _ in range(10000)]
    head = sum(1 for d in draws if d < 10)
    assert 600 < head < 1400  # ~10% +/- slack


def test_zipf_rejects_bad_args():
    with pytest.raises(ValueError):
        ZipfTable(0, 0.99)
    with pytest.raises(ValueError):
        ZipfTable(10, -1.0)


@given(st.integers(min_value=1, max_value=500),
       st.floats(min_value=0.0, max_value=2.0, allow_nan=False),
       st.floats(min_value=0.0, max_value=0.999999))
@settings(max_examples=100)
def test_zipf_draw_always_in_range(n, theta, u):
    table = ZipfTable(n, theta)
    assert 0 <= table.draw(u) < n


@given(st.integers(min_value=0, max_value=2 ** 32), st.text(max_size=20))
@settings(max_examples=50)
def test_stream_reproducible_property(seed, name):
    a = RandomStream(seed, name)
    b = RandomStream(seed, name)
    assert a.uniform() == b.uniform()
