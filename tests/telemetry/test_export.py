"""Tests for the Chrome trace exporter and the text dashboard."""

import json

from repro.sim import Environment
from repro.telemetry.export import chrome_trace, render_dashboard, write_chrome_trace
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.spans import Tracer


def make_traced_state():
    env = Environment()
    registry = MetricsRegistry()
    tracer = Tracer(env)
    tracer.complete(tracer.site("fastpath:read", "pipeline", "fastpath",
                                ("status",)), 100, 400, "ok")
    tracer.complete(tracer.site("mn:read", "cboard", "mn0"), 50, 500)
    open_span = tracer.begin(tracer.site("crashed", "fault", "mn0"),
                             at_ns=600)
    assert open_span is not None
    tracer.instant(tracer.site("drop:loss", "net", "cn0->tor", ("dst",)),
                   "mn0", at_ns=250)
    registry.series.append((1000, {"cboard.mn0.requests_served": 3}))
    registry.series.append((2000, {"cboard.mn0.requests_served": 7}))
    return env, registry, tracer


def test_chrome_trace_structure():
    _, registry, tracer = make_traced_state()
    document = chrome_trace(tracer, registry)
    assert document["displayTimeUnit"] == "ns"
    events = document["traceEvents"]
    by_phase = {}
    for event in events:
        assert "name" in event and "ph" in event
        by_phase.setdefault(event["ph"], []).append(event)

    complete = by_phase["X"]
    assert len(complete) == 2
    read = next(e for e in complete if e["name"] == "fastpath:read")
    assert read["ts"] == 0.1 and read["dur"] == 0.3    # ns -> us
    assert read["cat"] == "pipeline"
    assert read["args"]["status"] == "ok"

    begins = by_phase["B"]
    assert len(begins) == 1 and begins[0]["name"] == "crashed"
    assert "dur" not in begins[0]

    instants = by_phase["i"]
    assert len(instants) == 1
    assert instants[0]["s"] == "t"

    counters = by_phase["C"]
    assert len(counters) == 2
    assert counters[0]["args"]["value"] == 3
    assert counters[1]["ts"] == 2.0


def test_chrome_trace_track_and_category_rows():
    _, registry, tracer = make_traced_state()
    events = chrome_trace(tracer, registry)["traceEvents"]
    process_names = {e["args"]["name"]: e["pid"] for e in events
                     if e["ph"] == "M" and e["name"] == "process_name"}
    # One synthetic process per track, plus the metrics pseudo-process.
    assert set(process_names) == {"fastpath", "mn0", "cn0->tor", "metrics"}
    assert process_names["metrics"] == 1
    assert len(set(process_names.values())) == len(process_names)
    # Within a track, categories map to distinct thread rows.
    thread_names = [(e["pid"], e["tid"], e["args"]["name"]) for e in events
                    if e["ph"] == "M" and e["name"] == "thread_name"]
    mn0_pid = process_names["mn0"]
    mn0_threads = {name for pid, _, name in thread_names if pid == mn0_pid}
    assert mn0_threads == {"cboard", "fault"}
    # Every span/instant points at a registered pid.
    for event in events:
        if event["ph"] in ("X", "B", "i"):
            assert event["pid"] in process_names.values()


def test_chrome_trace_empty_inputs():
    assert chrome_trace(None, None)["traceEvents"] == []
    registry = MetricsRegistry()
    assert chrome_trace(None, registry)["traceEvents"] == []


def test_write_chrome_trace_round_trips(tmp_path):
    _, registry, tracer = make_traced_state()
    path = tmp_path / "trace.json"
    document = write_chrome_trace(str(path), tracer, registry)
    loaded = json.loads(path.read_text())
    assert loaded == json.loads(json.dumps(document))
    assert loaded["traceEvents"]


def test_dashboard_sections():
    env = Environment()
    registry = MetricsRegistry()
    registry.counter("cboard.mn0.requests_served", fn=lambda: 5)
    registry.gauge("cboard.mn0.utilization", fn=lambda: 0.123456)
    hist = registry.histogram("transport.cn0.rtt", unit="ns")
    for value in (100, 200, 300, 400):
        hist.observe(value)
    registry.series.append((1000, {"cboard.mn0.requests_served": 5}))
    registry.sample_interval_ns = 1000
    tracer = Tracer(env)
    tracer.complete(tracer.site("request:read", "transport", "cn0"), 0, 2000)
    tracer.begin(tracer.site("crashed", "fault", "mn0"))

    text = render_dashboard(registry, tracer, title="run")
    assert "run: metrics" in text
    assert "cboard.mn0.requests_served" in text
    assert "0.12" in text                      # gauge value rendered
    assert "run: histograms" in text
    assert "transport.cn0.rtt" in text
    assert "run: timeseries" in text
    assert "run: spans" in text
    assert "request:read" in text
    assert "crashed" in text


def test_dashboard_prefix_filter_and_empty():
    registry = MetricsRegistry()
    registry.counter("cboard.mn0.a", fn=lambda: 1)
    registry.counter("transport.cn0.b", fn=lambda: 1)
    text = render_dashboard(registry, prefix="cboard")
    assert "cboard.mn0.a" in text
    assert "transport.cn0.b" not in text
    assert render_dashboard() == "== telemetry: empty =="


def test_dashboard_reports_dropped_records():
    env = Environment()
    tracer = Tracer(env, max_records=1)
    tracer.complete(tracer.site("a", "t", "x"), 0, 1)
    tracer.complete(tracer.site("b", "t", "x"), 1, 2)     # dropped
    text = render_dashboard(tracer=tracer)
    assert "dropped 1" in text
