"""First-class observability: metrics, spans, and exporters.

See ``docs/observability.md`` for the instrument and span models, the
exporter formats, and the zero-cost-when-disabled guarantees.

The exporters (and the ``json`` / ``repro.analysis`` imports behind them)
load on first use: every ``import repro`` reaches this package, almost
none of them export anything.
"""

from repro.telemetry.metrics import (
    Counter,
    Gauge,
    Histogram,
    Instrument,
    MetricsRegistry,
    MetricsScope,
)
from repro.telemetry.spans import Instant, Span, Tracer

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "Instant",
    "Instrument",
    "MetricsRegistry",
    "MetricsScope",
    "Span",
    "Tracer",
    "chrome_trace",
    "render_dashboard",
    "write_chrome_trace",
]

_EXPORTERS = ("chrome_trace", "render_dashboard", "write_chrome_trace")


def __getattr__(name: str):
    if name in _EXPORTERS:
        from repro.telemetry import export
        return getattr(export, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
