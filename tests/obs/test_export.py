"""The ``--trace`` document, its renderings and the in-tree Chrome-trace
schema check."""

import json
from pathlib import Path

import pytest

from repro.obs import (
    MetricsRegistry,
    Tracer,
    chrome_trace,
    prometheus_text,
    validate_chrome_trace,
    write_chrome_trace,
)
from repro.obs.schema import main as schema_main

GOLDEN = Path(__file__).resolve().parents[1] / "golden"


def traced():
    t = Tracer()
    with t.span("outer", category="pipeline", n=1):
        with t.span("inner", category="engine") as sp:
            sp.set(blocks=4)
        t.event("decision", category="cache", outcome="hit")
    return t


class TestChromeTrace:
    def test_span_becomes_complete_event(self):
        doc = chrome_trace(traced())
        by_name = {e["name"]: e for e in doc["traceEvents"]}
        outer, inner = by_name["outer"], by_name["inner"]
        assert outer["ph"] == "X" and inner["ph"] == "X"
        assert outer["cat"] == "pipeline"
        assert inner["args"]["blocks"] == 4
        assert "parent_span" in inner["args"]      # nested under outer
        assert "parent_span" not in outer["args"]  # root span
        assert inner["ts"] >= outer["ts"]
        assert doc["displayTimeUnit"] == "ms"

    def test_instant_event(self):
        doc = chrome_trace(traced())
        (evt,) = [e for e in doc["traceEvents"] if e["ph"] == "i"]
        assert evt["name"] == "decision"
        assert evt["cat"] == "cache.event"
        assert evt["args"]["outcome"] == "hit"

    def test_instant_event_sits_on_its_threads_lane(self):
        """An event is drawn where the span around it is -- a daemon
        trace must not show every request's events on one lane."""
        import threading

        t = Tracer()

        def request():
            with t.span("serve.request"):
                t.event("admitted")

        worker = threading.Thread(target=request)
        worker.start()
        worker.join(timeout=10)
        t.event("on-main")
        doc = chrome_trace(t)
        lane = {e["name"]: e["tid"] for e in doc["traceEvents"]
                if e["ph"] in "Xi"}
        assert lane["admitted"] == lane["serve.request"] == \
            worker.ident & 0xFFFF
        assert lane["on-main"] == threading.get_ident() & 0xFFFF
        assert validate_chrome_trace(doc) == []

    def test_error_lands_in_args(self):
        t = Tracer()
        with pytest.raises(RuntimeError):
            with t.span("bad"):
                raise RuntimeError("x")
        doc = chrome_trace(t)
        (bad,) = [e for e in doc["traceEvents"] if e["name"] == "bad"]
        assert bad["args"]["error"] == "RuntimeError: x"

    def test_roundtrip_validates(self, tmp_path):
        path = tmp_path / "trace.json"
        write_chrome_trace(traced(), str(path))
        doc = json.loads(path.read_text())
        assert validate_chrome_trace(doc) == []

    def test_metadata_names_lanes(self):
        t = traced()
        doc = chrome_trace(t)
        meta = [e for e in doc["traceEvents"] if e["ph"] == "M"]
        assert meta, "expected process_name/thread_name metadata events"
        # metadata leads the stream so viewers label lanes up front
        assert doc["traceEvents"][0]["ph"] == "M"
        procs = {e["args"]["name"] for e in meta
                 if e["name"] == "process_name"}
        assert procs == {"repro"}
        threads = [e for e in meta if e["name"] == "thread_name"]
        assert threads and all(e["cat"] == "__metadata" and e["ts"] == 0
                               for e in meta)
        # every span/event lane has a thread_name on the same pid/tid
        lanes = {(e["pid"], e["tid"]) for e in doc["traceEvents"]
                 if e["ph"] in ("X", "i")}
        named = {(e["pid"], e["tid"]) for e in threads}
        assert lanes <= named

    def test_metadata_validates_and_worker_lanes_are_named(self):
        t = Tracer()
        with t.span("parent"):
            pass
        # simulate a merged worker span on a foreign pid
        t.spans[0].pid = t.pid + 1
        doc = chrome_trace(t)
        assert validate_chrome_trace(doc) == []
        procs = {e["args"]["name"] for e in doc["traceEvents"]
                 if e["ph"] == "M" and e["name"] == "process_name"}
        assert f"repro worker {t.pid + 1}" in procs


class TestSchemaCheck:
    def test_rejects_missing_trace_events(self):
        assert validate_chrome_trace({}) != []

    def test_rejects_bad_phase(self):
        doc = {"traceEvents": [{"name": "a", "cat": "c", "ph": "Z",
                                "ts": 0, "pid": 1, "tid": 1}]}
        assert any("ph" in e for e in validate_chrome_trace(doc))

    def test_rejects_complete_event_without_duration(self):
        doc = {"traceEvents": [{"name": "a", "cat": "c", "ph": "X",
                                "ts": 0, "pid": 1, "tid": 1}]}
        assert validate_chrome_trace(doc) != []

    def test_rejects_negative_timestamp(self):
        doc = {"traceEvents": [{"name": "a", "cat": "c", "ph": "i",
                                "ts": -1, "pid": 1, "tid": 1}]}
        assert validate_chrome_trace(doc) != []

    def test_cli_exit_codes(self, tmp_path, capsys):
        good = tmp_path / "good.json"
        write_chrome_trace(traced(), str(good))
        assert schema_main([str(good)]) == 0
        bad = tmp_path / "bad.json"
        bad.write_text('{"traceEvents": [{"ph": "X"}]}')
        assert schema_main([str(bad)]) == 1
        assert schema_main([]) == 2
        capsys.readouterr()


class TestDocument:
    def test_other_data_rides_in_the_trace(self, tmp_path):
        from repro.obs.export import TRACE_VERSION

        path = tmp_path / "trace.json"
        write_chrome_trace(traced(), str(path), command=["verify"],
                           exit_code=3, metrics={})
        doc = json.loads(path.read_text())
        assert validate_chrome_trace(doc) == []
        assert doc["otherData"] == {"version": TRACE_VERSION,
                                    "command": ["verify"], "exit_code": 3,
                                    "metrics": {}}

    def test_rejects_other_data_that_is_no_object(self):
        doc = {"traceEvents": [], "otherData": [1]}
        assert validate_chrome_trace(doc) == ["otherData: not an object"]


def snapshot(reg):
    """What a ``--trace`` document stores and reads back."""
    return json.loads(json.dumps(reg.snapshot()))


class TestMetricsExport:
    def registry(self):
        reg = MetricsRegistry()
        reg.inc("cache.hit", 3)
        reg.set("runtime.remote_accesses", 0)
        return reg

    def test_prometheus_text(self):
        text = prometheus_text(snapshot(self.registry()))
        assert "# TYPE cache_hit counter" in text
        assert "cache_hit 3" in text
        assert "runtime_remote_accesses 0" in text

    def test_prometheus_text_is_byte_stable(self):
        """``tests/golden/metrics.prom`` is what the registry's own
        Prometheus writer made of this registry before the text became a
        rendering of the stored snapshot, less the ``# HELP`` lines (no
        metric has a help string) and, since the registry holds counters
        and gauges only, less its three histograms: +Inf, a float
        counter, sanitized names."""
        reg = MetricsRegistry()
        reg.counter("cache.hit").inc(3)
        reg.inc("cache.miss.new-fingerprint")
        reg.inc("serve.latency", 0.25)
        reg.set("runtime.memory_words", 62)
        reg.set("machine.makespan", 0.125)
        reg.set("9lives", float("inf"))
        assert prometheus_text(snapshot(reg)) == \
            (GOLDEN / "metrics.prom").read_text()

    def test_metrics_json_keeps_dotted_names(self):
        doc = snapshot(self.registry())
        assert doc["cache.hit"]["value"] == 3
