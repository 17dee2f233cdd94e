"""The snapshot writer and the `repro top` dashboard."""

import io
import json
import os
import time

from repro.obs.metrics import MetricsRegistry, use_registry
from repro.obs.top import (
    SnapshotWriter,
    current_writer,
    read_snapshot,
    registry_stats,
    render_top,
    run_top,
)


class TestSnapshotWriter:
    def test_write_is_atomic_and_stamped(self, tmp_path):
        path = tmp_path / "top.json"
        w = SnapshotWriter(path)
        w.write({"phase": "execute", "units": 4})
        doc = json.loads(path.read_text())
        assert doc["phase"] == "execute"
        assert doc["pid"] == os.getpid()
        assert doc["written_at"] > 0
        assert "registry" in doc
        assert not list(tmp_path.glob("*.tmp.*")), "tmp file left behind"

    def test_maybe_write_throttles(self, tmp_path):
        w = SnapshotWriter(tmp_path / "top.json", interval_s=60.0)
        assert w.maybe_write({"phase": "a"})
        assert not w.maybe_write({"phase": "b"})   # inside the interval
        assert w.writes == 1

    def test_maybe_write_accepts_thunk_lazily(self, tmp_path):
        w = SnapshotWriter(tmp_path / "top.json", interval_s=60.0)
        calls = []

        def thunk():
            calls.append(1)
            return {"phase": "x"}

        assert w.maybe_write(thunk)
        assert not w.maybe_write(thunk)   # throttled: thunk never built
        assert calls == [1]

    def test_write_never_raises(self):
        w = SnapshotWriter("/nonexistent-dir/nope/top.json")
        w.write({"phase": "x"})   # swallowed, run must not die
        assert w.writes == 0

    def test_current_writer_follows_env(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_TOP_SNAPSHOT", raising=False)
        assert current_writer() is None
        monkeypatch.setenv("REPRO_TOP_SNAPSHOT", str(tmp_path / "t.json"))
        w = current_writer()
        assert w is not None and w.path == str(tmp_path / "t.json")
        assert current_writer() is w   # cached per path (throttle state)
        monkeypatch.setenv("REPRO_TOP_SNAPSHOT", str(tmp_path / "u.json"))
        assert current_writer() is not w


class TestRegistryStats:
    def test_reads_standard_families(self):
        reg = MetricsRegistry()
        reg.set("engine.pool.workers", 4)
        reg.inc("engine.pool.spawns")
        reg.set("engine.shm.bytes", 2048)
        reg.inc("cache.hit", 3)
        reg.inc("cache.miss.new-fingerprint", 1)
        reg.inc("cache.disk.hit", 1)
        stats = registry_stats(reg)
        assert stats["pool_workers"] == 4
        assert stats["shm_bytes"] == 2048
        assert stats["plan_cache_hit_rate"] == 0.75
        assert stats["kernel_cache_hit_rate"] == 1.0

    def test_empty_registry_rates_are_none(self):
        stats = registry_stats(MetricsRegistry())
        assert stats["plan_cache_hit_rate"] is None
        assert stats["kernel_cache_hit_rate"] is None

    def test_scoped_registry_is_the_default_source(self):
        reg = MetricsRegistry()
        reg.set("engine.pool.workers", 7)
        with use_registry(reg):
            assert registry_stats()["pool_workers"] == 7


class TestRenderTop:
    def _snap(self, **over):
        snap = {
            "case": "MATMUL40", "backend": "multiprocess", "pid": 123,
            "phase": "execute", "elapsed_s": 2.5, "written_at": time.time(),
            "units": 16, "units_done": 8, "blocks": 1600, "blocks_done": 800,
            "blocks_per_sec": 320.0,
            "leases": {"total": 10, "ok": 8, "inflight": 2, "pending": 6,
                       "expired": 1, "crashed": 1, "dropped": 0},
            "workers": {"101": {"blocks": 500, "units": 5},
                        "102": {"blocks": 300, "units": 3}},
            "registry": {"pool_workers": 4, "pool_spawns": 1,
                         "pool_reuses": 2, "shm_bytes": 3 * 1024 * 1024,
                         "plan_cache_hits": 2, "plan_cache_hit_rate": 0.5,
                         "kernel_cache_hits": 1,
                         "kernel_cache_hit_rate": 1.0},
            "comm_optimality": 1.0, "remote_accesses": 0,
        }
        snap.update(over)
        return snap

    def test_full_frame(self):
        text = render_top(self._snap())
        assert "MATMUL40" in text and "phase execute" in text
        assert "8/16 units, 800/1600 blocks" in text
        assert "320.0 blocks/s" in text
        assert "10 total | 8 ok | 2 inflight" in text
        assert "worker lanes:" in text and "101" in text
        assert "4 workers, 1 spawns, 2 reuses | shm 3.0MiB" in text
        assert "plan cache" in text and "kernel cache" in text
        assert "communication-free" in text
        assert "STALE" not in text

    def test_stale_snapshot_is_labeled(self):
        text = render_top(self._snap(written_at=time.time() - 60))
        assert "STALE" in text

    def test_degraded_gauge_shows_remote_count(self):
        text = render_top(self._snap(comm_optimality=0.6,
                                     remote_accesses=40))
        assert "40 remote accesses" in text
        assert "communication-free" not in text

    def test_minimal_snapshot_renders(self):
        text = render_top({"phase": "plan", "case": "L1"})
        assert "phase plan" in text   # missing sections simply absent


class TestRunTop:
    def test_no_snapshot_is_nonzero(self, tmp_path, capsys):
        out = io.StringIO()
        code = run_top(path=str(tmp_path / "none.json"), iterations=1,
                       out=out)
        assert code == 1
        assert "no snapshot" in capsys.readouterr().err

    def test_once_renders_single_frame(self, tmp_path):
        path = tmp_path / "top.json"
        SnapshotWriter(path).write({"phase": "done", "case": "L1"})
        out = io.StringIO()
        assert run_top(path=str(path), iterations=1, out=out) == 0
        frame = out.getvalue()
        assert "repro top -- L1" in frame
        assert "\x1b[2J" not in frame   # --once never clears the screen

    def test_garbage_snapshot_reads_as_not_yet(self, tmp_path):
        path = tmp_path / "top.json"
        path.write_text("{not json")
        assert read_snapshot(str(path)) is None
        out = io.StringIO()
        assert run_top(path=str(path), iterations=1, out=out) == 1

    def test_scheduler_snapshot_appears_during_real_run(self, tmp_path,
                                                        monkeypatch):
        """An actual multiprocess run publishes execute-phase frames."""
        path = tmp_path / "top.json"
        monkeypatch.setenv("REPRO_TOP_SNAPSHOT", str(path))
        monkeypatch.setenv("REPRO_MP_WORKERS", "2")
        from repro.core import Strategy, build_plan
        from repro.lang import catalog
        from repro.obs import top as topmod
        from repro.runtime.parallel import run_parallel

        # a fresh writer's first maybe_write fires immediately, so even a
        # fast run leaves at least one execute-phase frame behind
        topmod._writer = None   # drop any cached (throttled) writer
        plan = build_plan(catalog.l2(), strategy=Strategy.DUPLICATE)
        run_parallel(plan, backend="multiprocess")
        snap = read_snapshot(str(path))
        assert snap is not None
        assert snap["phase"] == "execute"
        assert snap["backend"] == "multiprocess"
        assert snap["blocks"] == len(plan.blocks)
        assert "leases" in snap and "comm_optimality" in snap
        render_top(snap)   # and it renders
