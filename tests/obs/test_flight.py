"""The coarse ring and its blackbox file: ring semantics through the
tracer (the one recording API), dumps, the post-mortem render."""

import json
from pathlib import Path

import pytest

from repro.obs import trace
from repro.obs.flight import (
    BLACKBOX_PREFIX,
    dump_blackbox,
    latest_blackbox,
    load_blackbox,
    render_blackbox,
)
from repro.obs.metrics import MetricsRegistry, use_registry
from repro.obs.trace import NULL_SPAN, NULL_TRACER, Ring, Tracer

GOLDEN = Path(__file__).resolve().parent.parent / "golden"


@pytest.fixture
def ring(monkeypatch):
    """A private ring in place of the process one."""
    ring = Ring(capacity=64)
    monkeypatch.setattr(trace, "RING", ring)
    return ring


class TestRing:
    def test_bounded_keeps_newest(self, monkeypatch):
        ring = Ring(capacity=16)
        monkeypatch.setattr(trace, "RING", ring)
        for i in range(40):
            NULL_TRACER.event(f"e{i}", coarse=True)
        assert len(ring) == 16
        names = [name for _, _, name, _ in ring]
        assert names[0] == "e24" and names[-1] == "e39"

    def test_capacity_floor(self):
        assert Ring(capacity=1).maxlen == 16

    def test_span_records_duration_and_error(self, ring):
        tracer = Tracer(enabled=False)
        with tracer.span("fine", coarse=True, tag=1):
            pass
        with pytest.raises(RuntimeError):
            with tracer.span("bad", coarse=True):
                raise RuntimeError("boom")
        (fine, bad) = ring
        assert fine[1] == "span" and fine[3]["dur_us"] >= 0
        assert fine[3]["tag"] == 1
        assert bad[3]["error"] == "RuntimeError: boom"
        assert tracer.spans == []            # disabled: the ring only

    def test_timestamps_monotone(self, ring):
        for i in range(5):
            NULL_TRACER.event(f"e{i}", coarse=True)
        stamps = [ts for ts, _, _, _ in ring]
        assert stamps == sorted(stamps)

    def test_process_recorder_is_always_on_by_default(self):
        """A disabled tracer still files what is marked coarse -- and
        only that: its unmarked span is the shared no-op."""
        before = len(trace.RING)
        assert NULL_TRACER.span("fine-grained") is NULL_SPAN
        NULL_TRACER.event("fine-grained")
        assert len(trace.RING) == before
        NULL_TRACER.event("coarse", coarse=True)
        assert trace.RING[-1][1:3] == ("event", "coarse")

    def test_an_enabled_tracer_keeps_the_coarse_record_too(self, ring):
        tracer = Tracer()
        with tracer.span("region", category="x", coarse=True, k=1):
            tracer.event("lease", category="x", coarse="lease", unit=0)
        (span,), (event,) = tracer.spans, tracer.events
        assert (span.name, event.name) == ("region", "lease")
        assert [(k, n) for _, k, n, _ in ring] == \
            [("lease", "lease"), ("span", "region")]

    def test_one_run_records_coarse_entries_only(self, ring):
        """Session/pass/engine-grained entries, never per-block or
        per-iteration ones: the structural reason the ring can stay
        always-on.  The count per run does not depend on the plan."""
        from repro.api import Session
        from repro.lang import catalog

        per_run = {}
        for n in (4, 12):
            with Session(catalog.matmul(n), strategy="duplicate") as s:
                s.plan()
                before = len(ring)
                nblocks = len(s.run().plan.blocks)
                per_run[nblocks] = len(ring) - before
        assert len(per_run) == 2, "two plans of different block counts"
        # session.run + engine.run_blocks
        assert set(per_run.values()) == {2}, per_run


class TestDump:
    @pytest.fixture(autouse=True)
    def _recorded(self, ring, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_BLACKBOX_DIR", str(tmp_path))
        NULL_TRACER.event("scheduler.start", coarse=True, units=4)
        NULL_TRACER.event("scheduler.lease", coarse="lease", unit=0,
                          attempt=1, fault="crash")
        NULL_TRACER.event("scheduler.retry", coarse="lease", unit=0,
                          attempt=2, reason="worker crashed")
        NULL_TRACER.event("scheduler.abort", coarse="error",
                          exc="RuntimeError: collapse")

    def test_roundtrip(self, tmp_path):
        reg = MetricsRegistry()
        reg.inc("scheduler.retries", 2)
        with use_registry(reg):
            path = dump_blackbox("it died")
        doc = load_blackbox(path)
        assert doc["blackbox"] == 1
        assert doc["reason"] == "it died"
        assert len(doc["entries"]) == 4
        assert doc["entries"][1]["kind"] == "lease"
        assert doc["entries"][1]["data"]["fault"] == "crash"
        assert doc["metrics"]["scheduler.retries"]["value"] == 2
        assert set(doc["entries"][1]) == {"t_us", "kind", "name", "data"}

    def test_dump_names_land_in_blackbox_dir(self, tmp_path):
        path = dump_blackbox("reason")
        assert path is not None
        assert path.startswith(str(tmp_path))
        assert BLACKBOX_PREFIX in path
        # consecutive dumps from one process get distinct names
        path2 = dump_blackbox("reason")
        assert path2 != path

    def test_dump_never_raises(self, tmp_path, monkeypatch, capsys):
        """A post-mortem writer that throws would mask the failure it
        documents: an odd payload value is written as its ``str``, and
        an unwritable directory is ``None``, announced nowhere."""
        NULL_TRACER.event("odd", coarse=True, where=tmp_path)
        path = dump_blackbox("r")
        assert load_blackbox(path)["entries"][-1]["data"]["where"] == \
            str(tmp_path)
        capsys.readouterr()
        monkeypatch.setenv("REPRO_BLACKBOX_DIR", str(tmp_path / "no"))
        assert dump_blackbox("r") is None
        assert capsys.readouterr().err == ""

    def test_extra_payload_is_merged(self):
        path = dump_blackbox("r", extra={"scheduler": {"units": 4}})
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

    def test_dump_blackbox_announces_on_stderr(self, capsys):
        path = dump_blackbox("unit-test reason")
        err = capsys.readouterr().err
        assert path in err and "unit-test reason" in err
        # the notice must not collide with the CLI's "repro: <reason>"
        # failure-line contract
        assert not any(ln.startswith("repro: ")
                       for ln in err.splitlines())


class TestRender:
    @pytest.fixture
    def doc(self, tmp_path, monkeypatch, ring):
        monkeypatch.setenv("REPRO_BLACKBOX_DIR", str(tmp_path))
        NULL_TRACER.event("scheduler.start", coarse=True, units=2)
        NULL_TRACER.event("scheduler.lease", coarse="lease", unit=0,
                          attempt=1, fault="crash")
        NULL_TRACER.event("scheduler.retry", coarse="lease", unit=0,
                          attempt=2, reason="worker crashed")
        NULL_TRACER.event("scheduler.abort", coarse="error",
                          exc="RuntimeError: gone")
        reg = MetricsRegistry()
        reg.inc("scheduler.crashes", 1)
        reg.observe("pipeline.pass.seconds.partition", 0.004)
        with use_registry(reg):
            path = dump_blackbox(
                "SchedulerError: unit 0 not recovered",
                extra={"scheduler": {
                    "units": 2, "completed_units": 1, "retries": 1,
                    "respawns": 1,
                    "leases": [{"unit": 0, "attempt": 1, "start_ms": 1.0,
                                "end_ms": 2.0, "outcome": "crash",
                                "fault": "crash"}],
                }})
        return load_blackbox(path)

    def test_renders_tail_leases_metrics_errors(self, doc):
        text = render_blackbox(doc)
        assert "SchedulerError: unit 0 not recovered" in text
        assert "last 4 entries" in text
        assert "lease timeline (1/2 units recovered, 1 retries" in text
        assert "unit   0 attempt 1" in text
        assert "scheduler.crashes: 1" in text
        assert "pipeline.pass.seconds.partition: count=1" in text
        assert "errors recorded: 1" in text
        assert "RuntimeError: gone" in text

    def test_render_last_limits_tail(self, doc):
        text = render_blackbox(doc, last=2)
        assert "last 2 entries (of 4 kept)" in text

    def test_render_falls_back_to_lease_entries(self, doc):
        del doc["scheduler"]
        text = render_blackbox(doc)
        assert "lease transitions (2):" in text
        assert "fault=crash" in text

    def test_rendered_doc_is_json_clean(self, doc):
        # the whole doc survives a JSON round-trip (no stray types)
        assert json.loads(json.dumps(doc)) == doc

    def test_a_parent_written_dump_renders_identically(self):
        """``blackbox_v1.json`` was dumped, and ``blackbox_v1.txt``
        rendered from it, by the commit before the recorders merged."""
        doc = load_blackbox(str(GOLDEN / "blackbox_v1.json"))
        assert render_blackbox(doc) + "\n" == \
            (GOLDEN / "blackbox_v1.txt").read_text()


class TestMalformed:
    """The post-mortem tool must not crash on the file it is given."""

    CASES = {
        "entry-without-stamp": {"entries": [{"kind": "event"}]},
        "entry-not-an-object": {"entries": ["scheduler.start"]},
        "entries-not-a-list": {"entries": {"kind": "event"}},
        "entry-data-not-an-object": {"entries": [
            {"t_us": 1.0, "kind": "event", "name": "e", "data": [1]}]},
        "metrics-not-an-object": {"metrics": [1, 2]},
        "histogram-without-count": {"metrics": {
            "h": {"kind": "histogram", "sum": 1.0, "p95": None}}},
        "scheduler-not-an-object": {"scheduler": "gone"},
        "lease-record-without-times": {"scheduler": {
            "units": 1, "completed_units": 0, "retries": 0, "respawns": 0,
            "leases": [{"unit": 0, "attempt": 0, "outcome": "crash"}]}},
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_load_refuses_what_render_would_trip_over(self, case, tmp_path):
        p = tmp_path / "bb.json"
        p.write_text(json.dumps({"blackbox": 1, **self.CASES[case]}))
        with pytest.raises(ValueError, match="malformed blackbox dump"):
            load_blackbox(str(p))

    def test_cli_answers_in_one_line_and_writes_nothing(self, tmp_path,
                                                        monkeypatch, capsys):
        import io

        from repro.cli import main

        box = tmp_path / "box"
        box.mkdir()
        monkeypatch.setenv("REPRO_BLACKBOX_DIR", str(box))
        p = tmp_path / "bb.json"
        p.write_text('{"blackbox":1,"entries":[{"kind":"event"}]}')
        out = io.StringIO()
        assert main(["blackbox", str(p)], out=out) == 1
        assert out.getvalue() == ""
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith(f"repro: cannot read blackbox {p}: ")
        assert list(box.iterdir()) == []

    def test_a_minimal_dump_still_renders(self, tmp_path):
        p = tmp_path / "bb.json"
        p.write_text('{"blackbox": 1, "scheduler": null}')
        assert "errors recorded: 0" in render_blackbox(load_blackbox(str(p)))


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
