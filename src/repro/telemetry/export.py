"""Exporters: Chrome/Perfetto ``trace_event`` JSON and a text dashboard.

The Chrome trace format (the ``chrome://tracing`` / Perfetto JSON
flavor) wants a ``traceEvents`` list where each event carries ``name``,
``ph`` (phase), ``ts`` (microseconds), and ``pid``/``tid`` integers.
Tracks map to synthetic process IDs (with ``process_name`` metadata) and
categories to thread IDs within the track, so one board's fast-path,
slow-path, and fault activity stack as separate rows in the UI.

The text dashboard renders the same registry/tracer state through
:mod:`repro.analysis.report` tables for terminal consumption.
"""

from __future__ import annotations

import json
from typing import Optional

from repro.analysis.report import render_table
from repro.telemetry.metrics import Histogram, MetricsRegistry
from repro.telemetry.spans import Tracer

#: Synthetic pid for registry counter series (no track of their own).
_METRICS_PID = 1


def chrome_trace(tracer: Optional[Tracer] = None,
                 registry: Optional[MetricsRegistry] = None) -> dict:
    """Build a Chrome ``trace_event`` document from spans and samples.

    Timestamps convert from simulated ns to the format's microseconds
    (floats keep full ns precision).  Open spans export as ``B`` (begin)
    events without a matching ``E`` — the viewers render them as
    unfinished, which is exactly what an un-restarted crash window is.

    The tracer's records are read one at a time from its row log: the
    only per-record objects alive at the end are the document's own.
    """
    events: list[dict] = []
    pids: dict[str, int] = {}
    tids: dict[tuple[str, str], int] = {}

    def pid_for(track: str) -> int:
        pid = pids.get(track)
        if pid is None:
            pid = _METRICS_PID + 1 + len(pids)
            pids[track] = pid
            events.append({"name": "process_name", "ph": "M", "ts": 0,
                           "pid": pid, "tid": 0,
                           "args": {"name": track}})
        return pid

    def tid_for(track: str, category: str) -> int:
        key = (track, category)
        tid = tids.get(key)
        if tid is None:
            tid = 1 + sum(1 for other in tids if other[0] == track)
            tids[key] = tid
            events.append({"name": "thread_name", "ph": "M", "ts": 0,
                           "pid": pid_for(track), "tid": tid,
                           "args": {"name": category}})
        return tid

    if tracer is not None:
        for span in tracer.spans:
            event = {
                "name": span.name,
                "cat": span.category,
                "ts": span.start_ns / 1000,
                "pid": pid_for(span.track),
                "tid": tid_for(span.track, span.category),
                "args": span.args or {},
            }
            if span.end_ns is None:
                event["ph"] = "B"
            else:
                event["ph"] = "X"
                event["dur"] = (span.end_ns - span.start_ns) / 1000
            events.append(event)
        for instant in tracer.instants:
            events.append({
                "name": instant.name,
                "cat": instant.category,
                "ph": "i",
                "s": "t",
                "ts": instant.at_ns / 1000,
                "pid": pid_for(instant.track),
                "tid": tid_for(instant.track, instant.category),
                "args": instant.args or {},
            })

    if registry is not None and registry.series:
        events.append({"name": "process_name", "ph": "M", "ts": 0,
                       "pid": _METRICS_PID, "tid": 0,
                       "args": {"name": "metrics"}})
        for at_ns, sample in registry.series:
            for name, value in sample.items():
                events.append({
                    "name": name,
                    "cat": "metrics",
                    "ph": "C",
                    "ts": at_ns / 1000,
                    "pid": _METRICS_PID,
                    "args": {"value": value},
                })

    return {"traceEvents": events, "displayTimeUnit": "ns"}


def write_chrome_trace(path: str, tracer: Optional[Tracer] = None,
                       registry: Optional[MetricsRegistry] = None) -> dict:
    """Serialize :func:`chrome_trace` to ``path``; returns the document."""
    document = chrome_trace(tracer, registry)
    with open(path, "w") as handle:
        json.dump(document, handle, indent=1)
        handle.write("\n")
    return document


# -- text dashboard --------------------------------------------------------------


def render_dashboard(registry: Optional[MetricsRegistry] = None,
                     tracer: Optional[Tracer] = None,
                     title: str = "telemetry",
                     prefix: str = "") -> str:
    """Plain-text dashboard: scalar metrics, histograms, span aggregates."""
    sections: list[str] = []

    if registry is not None:
        scalar_rows = []
        histogram_rows = []
        for instrument in registry.instruments(prefix):
            if isinstance(instrument, Histogram):
                histogram_rows.append([
                    instrument.name, instrument.count,
                    round(instrument.mean, 1) if instrument.count else "-",
                    round(instrument.quantile(0.5), 1)
                    if instrument.samples else "-",
                    round(instrument.quantile(0.99), 1)
                    if instrument.samples else "-",
                    instrument.max if instrument.count else "-",
                ])
            else:
                value = instrument.value
                if isinstance(value, float):
                    value = round(value, 4)
                scalar_rows.append([instrument.name, instrument.kind, value])
        if scalar_rows:
            sections.append(render_table(
                f"{title}: metrics", ["name", "kind", "value"], scalar_rows,
                width=34))
        if histogram_rows:
            sections.append(render_table(
                f"{title}: histograms",
                ["name", "count", "mean", "p50", "p99", "max"],
                histogram_rows, width=18))
        if registry.series:
            first_ns = registry.series[0][0]
            last_ns = registry.series[-1][0]
            sections.append(render_table(
                f"{title}: timeseries",
                ["samples", "first_us", "last_us", "interval_us"],
                [[len(registry.series), first_ns / 1000, last_ns / 1000,
                  registry.sample_interval_ns / 1000]]))

    if tracer is not None:
        span_rows = []
        summary = tracer.summary()
        for name in sorted(summary):
            entry = summary[name]
            span_rows.append([
                name, entry["count"], entry["open"],
                round(entry["total_ns"] / 1000, 2),
                round(entry["mean_ns"] / 1000, 3)
                if entry["mean_ns"] is not None else "-",
            ])
        if span_rows:
            sections.append(render_table(
                f"{title}: spans",
                ["span", "count", "open", "total_us", "mean_us"],
                span_rows, width=22))
        if tracer.dropped:
            sections.append(f"(tracer dropped {tracer.dropped} records "
                            f"over the {tracer.max_records} cap)")

    return "\n\n".join(sections) if sections else f"== {title}: empty =="
