"""CLI observability flags: --trace, --metrics, --metrics-out, --events."""

import io
import json

from repro.cli import main
from repro.obs import validate_chrome_trace


def run(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


class TestTraceFlag:
    def test_verify_trace_is_valid_and_covers_layers(self, tmp_path):
        path = tmp_path / "trace.json"
        code, text = run("verify", "--loop", "L1", "--trace", str(path))
        assert code == 0 and "OK" in text
        doc = json.loads(path.read_text())
        assert validate_chrome_trace(doc) == []
        cats = {e["cat"] for e in doc["traceEvents"]}
        assert {"cli", "engine", "runtime"} <= cats
        names = {e["name"] for e in doc["traceEvents"]}
        assert "engine.block" in names          # per-block engine spans
        assert "engine.resolve" in names
        assert "cli.verify" in names

    def test_report_trace_has_pipeline_engine_machine(self, tmp_path):
        from repro.pipeline import PLAN_CACHE

        PLAN_CACHE.clear()
        path = tmp_path / "trace.json"
        code, _ = run("report", "--loop", "L1", "-p", "4",
                      "--trace", str(path))
        assert code == 0
        doc = json.loads(path.read_text())
        assert validate_chrome_trace(doc) == []
        cats = {e["cat"] for e in doc["traceEvents"]}
        assert {"pipeline", "engine", "machine", "cache"} <= cats
        names = {e["name"] for e in doc["traceEvents"]}
        assert any(n.startswith("pass:") for n in names)
        assert "engine.block" in names
        assert "machine.distribute" in names

    def test_no_trace_flag_writes_nothing(self, tmp_path):
        code, _ = run("verify", "--loop", "L1")
        assert code == 0
        assert list(tmp_path.iterdir()) == []


class TestMetricsFlags:
    def test_metrics_prints_prometheus_text(self):
        code, text = run("verify", "--loop", "L1", "--metrics")
        assert code == 0
        assert "# TYPE runtime_remote_accesses gauge" in text
        assert "runtime_remote_accesses 0" in text
        assert "# TYPE verify_runs counter" in text

    def test_metrics_out_json(self, tmp_path):
        path = tmp_path / "metrics.json"
        code, _ = run("verify", "--loop", "L1", "--metrics-out", str(path))
        assert code == 0
        doc = json.loads(path.read_text())
        assert doc["runtime.remote_accesses"]["value"] == 0
        assert doc["verify.runs"]["value"] == 1

    def test_metrics_out_text(self, tmp_path):
        path = tmp_path / "metrics.prom"
        code, _ = run("verify", "--loop", "L1", "--metrics-out", str(path))
        assert code == 0
        assert "runtime_remote_accesses 0" in path.read_text()

    def test_report_metrics_include_all_three_systems(self, tmp_path):
        path = tmp_path / "m.json"
        code, _ = run("report", "--loop", "L1", "-p", "4",
                      "--metrics-out", str(path))
        assert code == 0
        doc = json.loads(path.read_text())
        # pipeline (pass spans), runtime (ParallelResult),
        # machine (MachineStats) all land in one registry
        assert any(k.startswith("pipeline.pass.seconds.") for k in doc)
        assert "runtime.remote_accesses" in doc
        assert "machine.makespan" in doc

    def test_metrics_scoped_per_invocation(self, tmp_path):
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        run("verify", "--loop", "L1", "--metrics-out", str(p1))
        run("verify", "--loop", "L1", "--metrics-out", str(p2))
        d1 = json.loads(p1.read_text())
        d2 = json.loads(p2.read_text())
        # fresh registry per command: counters do not leak across runs
        assert d1["verify.runs"]["value"] == 1
        assert d2["verify.runs"]["value"] == 1


class TestEventsFlag:
    def test_event_log_lines_parse(self, tmp_path):
        path = tmp_path / "events.jsonl"
        code, _ = run("verify", "--loop", "L1", "--events", str(path))
        assert code == 0
        lines = [json.loads(ln) for ln in path.read_text().splitlines()]
        assert lines
        assert all(ln["type"] in ("span", "event") for ln in lines)
        assert any(ln["name"] == "cli.verify" for ln in lines)


class TestObservabilityReportSection:
    def test_report_renders_registry(self):
        code, text = run("report", "--loop", "L1", "-p", "4", "--metrics")
        assert code == 0
        assert "=== observability ===" in text
        assert "gauge runtime.remote_accesses: 0" in text
        assert "=== simulated machine (p=4) ===" in text
        assert "communication-free: True" in text
