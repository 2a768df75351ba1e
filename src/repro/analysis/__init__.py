"""Statistics and report rendering for the benchmark harness."""

from repro.analysis.report import render_series, render_table
from repro.analysis.stats import LatencyRecorder, percentile, rate_gbps

__all__ = [
    "LatencyRecorder",
    "percentile",
    "rate_gbps",
    "render_series",
    "render_table",
]
