"""The flight recorder: ring semantics, dumps, the post-mortem render."""

import json

import pytest

from repro.obs.flight import (
    BLACKBOX_PREFIX,
    FlightRecorder,
    dump_blackbox,
    flight,
    latest_blackbox,
    load_blackbox,
    render_blackbox,
)
from repro.obs.metrics import MetricsRegistry


class TestRing:
    def test_bounded_keeps_newest(self):
        fr = FlightRecorder(capacity=16)
        for i in range(40):
            fr.record("event", f"e{i}")
        assert len(fr) == 16
        names = [name for _, _, name, _ in fr.entries()]
        assert names[0] == "e24" and names[-1] == "e39"

    def test_capacity_floor(self):
        assert FlightRecorder(capacity=1).capacity == 16

    def test_span_records_duration_and_error(self):
        fr = FlightRecorder(capacity=64)
        with fr.span("fine", tag=1):
            pass
        with pytest.raises(RuntimeError):
            with fr.span("bad"):
                raise RuntimeError("boom")
        (fine, bad) = fr.entries()
        assert fine[1] == "span" and fine[3]["dur_us"] >= 0
        assert fine[3]["tag"] == 1
        assert bad[3]["error"] == "RuntimeError: boom"

    def test_timestamps_monotone(self):
        fr = FlightRecorder(capacity=64)
        for i in range(5):
            fr.record("event", f"e{i}")
        stamps = [ts for ts, _, _, _ in fr.entries()]
        assert stamps == sorted(stamps)

    def test_process_recorder_is_always_on_by_default(self):
        assert flight() is flight()
        assert isinstance(flight(), FlightRecorder)

    def test_one_run_records_coarse_entries_only(self, monkeypatch):
        """Pass/engine-grained entries, never per-block or per-iteration
        ones: the structural reason the recorder can stay always-on."""
        import sys

        from repro.api import Session
        from repro.lang import catalog

        counting = FlightRecorder(capacity=1 << 20)
        # the module, not the package's same-named ``flight`` accessor
        monkeypatch.setattr(sys.modules[flight.__module__], "FLIGHT",
                            counting)
        with Session(catalog.matmul(12), strategy="duplicate") as s:
            nblocks = len(s.run().plan.blocks)
        assert 0 < len(counting) < max(64, nblocks), (
            f"{len(counting)} flight entries for one run of {nblocks} "
            f"blocks / {12 ** 3} iterations")


class TestDump:
    def _recorder(self):
        fr = FlightRecorder(capacity=64)
        fr.record("event", "scheduler.start", units=4)
        fr.record("lease", "submit", unit=0, attempt=1, fault="crash")
        fr.record("lease", "retry", unit=0, attempt=2,
                  reason="worker crashed")
        fr.error("scheduler.abort", RuntimeError("collapse"))
        return fr

    def test_roundtrip(self, tmp_path):
        fr = self._recorder()
        reg = MetricsRegistry()
        reg.inc("scheduler.retries", 2)
        path = str(tmp_path / "bb.json")
        assert fr.dump("it died", path=path, registry=reg) == path
        doc = load_blackbox(path)
        assert doc["blackbox"] == 1
        assert doc["reason"] == "it died"
        assert len(doc["entries"]) == 4
        assert doc["entries"][1]["kind"] == "lease"
        assert doc["entries"][1]["data"]["fault"] == "crash"
        assert doc["metrics"]["scheduler.retries"]["value"] == 2

    def test_dump_names_land_in_blackbox_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_BLACKBOX_DIR", str(tmp_path))
        fr = self._recorder()
        path = fr.dump("reason", registry=MetricsRegistry())
        assert path is not None
        assert path.startswith(str(tmp_path))
        assert BLACKBOX_PREFIX in path
        # consecutive dumps from one process get distinct names
        path2 = fr.dump("reason", registry=MetricsRegistry())
        assert path2 != path

    def test_extra_payload_is_merged(self, tmp_path):
        fr = self._recorder()
        path = str(tmp_path / "bb.json")
        fr.dump("r", path=path, extra={"scheduler": {"units": 4}},
                registry=MetricsRegistry())
        assert load_blackbox(path)["scheduler"] == {"units": 4}

    def test_load_rejects_non_blackbox(self, tmp_path):
        p = tmp_path / "not.json"
        p.write_text('{"hello": 1}')
        with pytest.raises(ValueError):
            load_blackbox(str(p))

    def test_latest_picks_newest(self, tmp_path):
        import os
        import time

        for i, stamp in enumerate((100, 300, 200)):
            p = tmp_path / f"{BLACKBOX_PREFIX}1-{i}.json"
            p.write_text('{"blackbox": 1}')
            t = time.time() - 1000 + stamp
            os.utime(p, (t, t))
        assert latest_blackbox(str(tmp_path)).endswith("-1.json")

    def test_latest_none_when_empty(self, tmp_path):
        assert latest_blackbox(str(tmp_path)) is None

    def test_dump_blackbox_announces_on_stderr(self, tmp_path, monkeypatch,
                                               capsys):
        monkeypatch.setenv("REPRO_BLACKBOX_DIR", str(tmp_path))
        flight().record("event", "poke")
        path = dump_blackbox("unit-test reason")
        err = capsys.readouterr().err
        assert path in err and "unit-test reason" in err
        # the notice must not collide with the CLI's "repro: <reason>"
        # failure-line contract
        assert not any(ln.startswith("repro: ")
                       for ln in err.splitlines())


class TestRender:
    def _doc(self, tmp_path):
        fr = FlightRecorder(capacity=64)
        fr.record("event", "scheduler.start", units=2)
        fr.record("lease", "submit", unit=0, attempt=1, fault="crash")
        fr.record("lease", "retry", unit=0, attempt=2,
                  reason="worker crashed")
        fr.error("scheduler.abort", RuntimeError("gone"))
        reg = MetricsRegistry()
        reg.inc("scheduler.crashes", 1)
        reg.observe("pipeline.pass.seconds.partition", 0.004)
        path = str(tmp_path / "bb.json")
        fr.dump("SchedulerError: unit 0 not recovered", path=path,
                registry=reg,
                extra={"scheduler": {
                    "units": 2, "completed_units": 1, "retries": 1,
                    "respawns": 1,
                    "leases": [{"unit": 0, "attempt": 1, "start_ms": 1.0,
                                "end_ms": 2.0, "outcome": "crash",
                                "fault": "crash"}],
                }})
        return load_blackbox(path)

    def test_renders_tail_leases_metrics_errors(self, tmp_path):
        text = render_blackbox(self._doc(tmp_path))
        assert "SchedulerError: unit 0 not recovered" in text
        assert "last 4 entries" in text
        assert "lease timeline (1/2 units recovered, 1 retries" in text
        assert "unit   0 attempt 1" in text
        assert "scheduler.crashes: 1" in text
        assert "pipeline.pass.seconds.partition: count=1" in text
        assert "errors recorded: 1" in text
        assert "RuntimeError: gone" in text

    def test_render_last_limits_tail(self, tmp_path):
        doc = self._doc(tmp_path)
        text = render_blackbox(doc, last=2)
        assert "last 2 entries (of 4 kept)" in text

    def test_render_falls_back_to_lease_entries(self, tmp_path):
        doc = self._doc(tmp_path)
        del doc["scheduler"]
        text = render_blackbox(doc)
        assert "lease transitions (2):" in text
        assert "fault=crash" in text

    def test_rendered_doc_is_json_clean(self, tmp_path):
        # the whole doc survives a JSON round-trip (no stray types)
        doc = self._doc(tmp_path)
        assert json.loads(json.dumps(doc)) == doc


class TestSchedulerDump:
    def test_unrecovered_chaos_leaves_a_blackbox(self, tmp_path,
                                                 monkeypatch, capsys):
        """A chaos run the scheduler cannot absorb dumps before raising."""
        monkeypatch.setenv("REPRO_BLACKBOX_DIR", str(tmp_path))
        monkeypatch.setenv("REPRO_MP_WORKERS", "1")
        from repro.core import Strategy, build_plan
        from repro.lang import catalog
        from repro.runtime.parallel import run_parallel
        from repro.runtime.scheduler import (
            FaultPlan,
            SchedulerError,
            use_fault_plan,
        )

        plan = build_plan(catalog.l2(), strategy=Strategy.DUPLICATE)
        with use_fault_plan(FaultPlan.parse(
                "crash-prob=1,shield-final=0,seed=1")):
            with pytest.raises(SchedulerError):
                run_parallel(plan, backend="multiprocess")
        capsys.readouterr()
        path = latest_blackbox(str(tmp_path))
        assert path is not None
        doc = load_blackbox(path)
        assert "SchedulerError" in doc["reason"]
        assert doc["scheduler"]["leases"], "lease timeline missing"
        kinds = {e["kind"] for e in doc["entries"]}
        assert "lease" in kinds and "error" in kinds
        # and the post-mortem renders without a re-run
        text = render_blackbox(doc)
        assert "lease timeline" in text
