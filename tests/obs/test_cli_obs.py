"""The CLI's observability flag, ``--trace FILE``, and the renderings of
a ``--trace`` document (``python -m repro.obs.export``)."""

import io
import json
from collections import Counter

import pytest

from repro.cli import build_parser, main
from repro.obs import validate_chrome_trace
from repro.obs.export import main as export_main


def run(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


def traced(tmp_path, *argv):
    """(exit code, the ``--trace`` document) of one command."""
    path = tmp_path / "trace.json"
    code, _ = run(*argv, "--trace", str(path))
    return code, json.loads(path.read_text())


def export(path, form, capsys):
    capsys.readouterr()
    code = export_main([str(path), "--as", form])
    return code, capsys.readouterr().out


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

    def test_the_document_carries_the_run(self, tmp_path):
        """One file answers what ran, how it ended, what it counted and
        where the wall clock went."""
        from repro.obs.export import TRACE_VERSION
        from repro.pipeline import PLAN_CACHE

        PLAN_CACHE.clear()
        path = tmp_path / "trace.json"
        argv = ["verify", "--loop", "L5", "--duplicate", "--backend",
                "codegen", "--trace", str(path)]
        assert run(*argv)[0] == 0
        doc = json.loads(path.read_text())
        assert validate_chrome_trace(doc) == []
        other = doc["otherData"]
        assert set(other) == {"version", "command", "exit_code", "metrics"}
        assert other["version"] == TRACE_VERSION
        assert other["command"] == argv and other["exit_code"] == 0
        metrics = other["metrics"]
        # the engine chosen, and why the plan cache missed
        assert metrics["engine.resolved.codegen"]["value"] == 1
        assert metrics["cache.miss.new-fingerprint"]["value"] == 1
        # the spans are the one timing record: no sampler track, no
        # timing metric
        assert not any(e["cat"].startswith("sample.")
                       for e in doc["traceEvents"])
        assert not any(name.startswith(("profile.", "pipeline.pass."))
                       for name in metrics)
        assert {m["kind"] for m in metrics.values()} <= {"counter", "gauge"}

    def test_a_failed_command_records_its_exit_code(self, tmp_path):
        code, doc = traced(tmp_path, "audit", "--loop", "L1", "--static",
                           "--inject-violation")
        assert code == 1 and doc["otherData"]["exit_code"] == 1


class TestMetricsFlags:
    """The registry a run publishes is ``otherData.metrics``, and
    ``--as prom`` renders it as Prometheus text."""

    def test_metrics_prints_prometheus_text(self, tmp_path, capsys):
        assert traced(tmp_path, "verify", "--loop", "L1")[0] == 0
        code, text = export(tmp_path / "trace.json", "prom", capsys)
        assert code == 0
        assert "# TYPE runtime_remote_accesses gauge" in text
        assert "runtime_remote_accesses 0" in text
        assert "# TYPE verify_runs counter" in text

    def test_metrics_out_json(self, tmp_path):
        code, doc = traced(tmp_path, "verify", "--loop", "L1")
        assert code == 0
        metrics = doc["otherData"]["metrics"]
        assert metrics["runtime.remote_accesses"]["value"] == 0
        assert metrics["verify.runs"]["value"] == 1

    def test_metrics_out_text(self, tmp_path, capsys):
        """The rendering is the registry as stored, byte for byte."""
        from repro.obs.export import prometheus_text

        assert traced(tmp_path, "verify", "--loop", "L1")[0] == 0
        path = tmp_path / "trace.json"
        metrics = json.loads(path.read_text())["otherData"]["metrics"]
        code, text = export(path, "prom", capsys)
        assert code == 0 and text == prometheus_text(metrics)
        assert "runtime_remote_accesses 0" in text

    def test_report_metrics_include_all_three_systems(self, tmp_path):
        code, doc = traced(tmp_path, "report", "--loop", "L1", "-p", "4")
        assert code == 0
        metrics = doc["otherData"]["metrics"]
        # pipeline (plan cache), runtime (ParallelResult),
        # machine (MachineStats) all land in one registry
        assert "cache.miss" in metrics or "cache.hit" in metrics
        assert "runtime.remote_accesses" in metrics
        assert "machine.makespan" in metrics

    def test_metrics_scoped_per_invocation(self, tmp_path):
        (tmp_path / "a").mkdir()
        (tmp_path / "b").mkdir()
        _, d1 = traced(tmp_path / "a", "verify", "--loop", "L1")
        _, d2 = traced(tmp_path / "b", "verify", "--loop", "L1")
        # fresh registry per command: counters do not leak across runs
        assert d1["otherData"]["metrics"]["verify.runs"]["value"] == 1
        assert d2["otherData"]["metrics"]["verify.runs"]["value"] == 1


class TestObservabilityReportSection:
    def test_report_renders_registry(self, tmp_path, capsys):
        """The report's own registry is what the document holds; the
        report has no section repeating it."""
        path = tmp_path / "trace.json"
        code, text = run("report", "--loop", "L1", "-p", "4",
                         "--trace", str(path))
        assert code == 0
        assert "=== observability ===" not in text
        assert "=== simulated machine (p=4) ===" in text
        assert "communication-free: True" in text
        _, prom = export(path, "prom", capsys)
        assert "runtime_remote_accesses 0" in prom
        assert "audit_runs 1" in prom and "verify_runs 1" in prom


class TestOneStream:
    """The spans and the metrics of one document are one stream: they
    agree with each other, on every loop of the paper."""

    @pytest.mark.parametrize("loop", ["L1", "L2", "L3", "L4", "L5"])
    def test_timings_rows_are_the_pass_spans(self, loop, tmp_path, capsys):
        from repro.pipeline import PLAN_CACHE

        PLAN_CACHE.clear()              # a hit would run no pass
        code, doc = traced(tmp_path, "report", "--loop", loop, "-p", "4")
        assert code == 0
        metrics = doc["otherData"]["metrics"]
        passes = Counter(e["name"][len("pass:"):] for e in doc["traceEvents"]
                         if e["ph"] == "X" and e["name"].startswith("pass:"))
        assert passes, "no pass:* span"
        code, text = export(tmp_path / "trace.json", "timings", capsys)
        assert code == 0
        rows = text.splitlines()[1:1 + len(passes)]
        assert {ln.split()[0]: int(ln.split()[1]) for ln in rows} == passes
        # the simulated machine holds the words the run allocated
        words = metrics["machine.memory_words"]["value"]
        assert words == metrics["runtime.memory_words"]["value"] > 0
        if loop == "L1":
            assert words == 62


class TestExport:
    def test_a_file_without_the_record_is_refused(self, tmp_path, capsys):
        from repro.obs import Tracer, write_chrome_trace

        path = tmp_path / "bare.json"
        write_chrome_trace(Tracer(), str(path))     # no metrics
        for form in ("prom", "timings"):
            code, text = export(path, form, capsys)
            assert code == 1 and text == ""
        assert export(tmp_path / "missing.json", "prom", capsys)[0] == 1

    def test_an_unknown_rendering_is_a_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            export_main([str(tmp_path / "t.json"), "--as", "lines"])
        assert exc.value.code == 2

    def test_collapsed_is_gone(self, tmp_path, capsys):
        """There is no sampler, so no flamegraph lines to render."""
        with pytest.raises(SystemExit) as exc:
            export_main([str(tmp_path / "t.json"), "--as", "collapsed"])
        assert exc.value.code == 2
        assert "invalid choice: 'collapsed'" in capsys.readouterr().err


class TestFlags:
    def test_every_subcommand_has_exactly_one(self):
        commands = build_parser()._subparsers._group_actions[0].choices
        assert len(commands) == 8
        for name, parser in commands.items():
            flags = {o for a in parser._actions for o in a.option_strings}
            assert "--trace" in flags, name
            assert not flags & {"--timings", "--metrics", "--metrics-out",
                                "--events", "--profile"}, name

    @pytest.mark.parametrize("flag", [("--metrics",), ("--metrics-out", "m"),
                                      ("--events", "e"), ("--profile", "p")],
                             ids=lambda f: f[0])
    def test_the_retired_flags_exit_2(self, flag, tmp_path, monkeypatch,
                                      capsys):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            run("verify", "--loop", "L1", *flag)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "argv", [("verify", "--loop", "L1"), ("run", "--loop", "L1"),
                 ("serve", "status"), ("report", "--loop", "L1"),
                 ("audit", "--loop", "L1"), ("figures",), ("tables",),
                 ("selftest",)],
        ids=lambda argv: argv[0])
    def test_timings_is_refused_by_every_subcommand(self, argv, tmp_path,
                                                    monkeypatch, capsys):
        """The table is ``--as timings`` of a ``--trace`` document."""
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            run(*argv, "--timings")
        assert exc.value.code == 2
        assert "unrecognized arguments: --timings" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []
