"""Tests for statistics helpers and report rendering."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.report import render_series, render_table
from repro.analysis.stats import (
    LatencyRecorder,
    percentile,
    rate_gbps,
)


def test_percentile_basics():
    samples = list(range(1, 101))
    assert percentile(samples, 0.0) == 1
    assert percentile(samples, 1.0) == 100
    assert percentile(samples, 0.5) == 50 or percentile(samples, 0.5) == 51


def test_percentile_rejects_bad_input():
    with pytest.raises(ValueError):
        percentile([], 0.5)
    with pytest.raises(ValueError):
        percentile([1], 1.5)


def test_percentile_unsorted_input():
    assert percentile([5, 1, 9, 3], 1.0) == 9


def test_rate_gbps():
    # 1250 bytes in 1000 ns = 10 Gbps.
    assert rate_gbps(1250, 1000) == pytest.approx(10.0)
    with pytest.raises(ValueError):
        rate_gbps(100, 0)


def test_latency_recorder_summary():
    recorder = LatencyRecorder("reads")
    recorder.extend([1000, 2000, 3000, 100000])
    summary = recorder.summary()
    assert summary["count"] == 4
    assert summary["max_us"] == 100.0
    assert summary["median_us"] in (2.0, 3.0)
    assert len(recorder) == 4


def test_latency_recorder_empty_raises():
    recorder = LatencyRecorder()
    with pytest.raises(ValueError):
        _ = recorder.median_ns


def test_render_table_contains_cells():
    text = render_table("Title", ["a", "b"], [[1, 2.5], ["x", "y"]])
    assert "Title" in text
    assert "2.500" in text
    assert "x" in text


def test_render_series_aligns_columns():
    text = render_series("S", "size", [16, 64],
                         {"clio": [1.0, 2.0], "rdma": [3.0]})
    lines = text.splitlines()
    assert "size" in lines[1] and "clio" in lines[1] and "rdma" in lines[1]
    assert "3.000" in text
    # Missing trailing value renders as blank, not a crash.
    assert len(lines) == 5   # title, header, rule, two data rows


@given(st.lists(st.integers(min_value=0, max_value=10 ** 9), min_size=1),
       st.floats(min_value=0, max_value=1, allow_nan=False))
@settings(max_examples=100)
def test_percentile_always_in_sample_range(samples, fraction):
    value = percentile(samples, fraction)
    assert min(samples) <= value <= max(samples)
    assert value in samples


def test_percentile_rules_at_one_hundred_samples():
    """Both index rules, pinned where they differ from nearest-rank.
    The floor rule (``runner.p99``, ``ChurnReport.percentile``) computes
    the scenarios' ``pre_p99_ns`` and ``victim_*_p99_ns`` goldens, so
    changing either rule is a deliberate re-pin."""
    from repro.verify.runner import p99 as floor_p99
    from repro.workloads.churn import ChurnReport

    samples = list(range(100, 0, -1))          # 1..100, unsorted
    churn = ChurnReport("x", "freelist", "first-fit", 0,
                        alloc_latencies_ns=samples)
    assert floor_p99(samples) == churn.percentile(99) == 100
    assert churn.percentile(50) == 51
    assert percentile(samples, 0.99) == 99
    assert percentile(samples, 0.5) == 51
