"""Cross-process aggregation: worker lanes, merged counters, degradation."""

import json

import pytest

from repro.core import Strategy, build_plan
from repro.lang import catalog
from repro.obs.aggregate import WorkerObs, capture_worker_obs, merge_worker_obs
from repro.obs.export import chrome_trace
from repro.obs.metrics import MetricsRegistry, use_registry
from repro.obs.schema import validate_chrome_trace
from repro.obs.trace import Event, Span, Tracer, use_tracer
from repro.runtime.parallel import run_parallel


def _worker_obs(pid=4242):
    """A hand-built worker delta: a parent span, a child, an event."""
    obs = WorkerObs(pid=pid)
    obs.spans = [
        Span(name="engine.chunk", category="engine", span_id=0,
             parent_id=None, start_ns=100, duration_ns=50),
        Span(name="engine.block", category="engine", span_id=1,
             parent_id=0, start_ns=110, duration_ns=20),
    ]
    obs.events = [Event(name="worker.note", category="engine", ts_ns=115,
                        span_id=1)]
    reg = MetricsRegistry()
    reg.inc("engine.worker.blocks", 3)
    reg.histogram("worker.h").observe(5.0)
    obs.metrics = [reg.get(n) for n in reg.names()]
    return obs


class TestMergeWorkerObs:
    def test_spans_are_remapped_and_rehomed(self):
        tracer = Tracer(enabled=True)
        with tracer.span("engine.fanout") as fsp:
            pass
        merge_worker_obs(tracer, MetricsRegistry(), _worker_obs(),
                         ts_offset_ns=1000, parent_span_id=fsp.span_id)
        adopted = [s for s in tracer.spans if s.pid == 4242]
        assert len(adopted) == 2
        chunk = next(s for s in adopted if s.name == "engine.chunk")
        block = next(s for s in adopted if s.name == "engine.block")
        # worker root hangs off the fan-out span; child keeps its parent
        assert chunk.parent_id == fsp.span_id
        assert block.parent_id == chunk.span_id
        assert chunk.span_id != 0   # remapped past local ids
        assert chunk.start_ns == 1100 and block.start_ns == 1110
        assert block.duration_ns == 20

    def test_events_follow_their_spans(self):
        tracer = Tracer(enabled=True)
        merge_worker_obs(tracer, MetricsRegistry(), _worker_obs())
        (evt,) = tracer.events
        assert evt.pid == 4242
        block = next(s for s in tracer.spans if s.name == "engine.block")
        assert evt.span_id == block.span_id

    def test_metrics_merge_counters_and_histograms(self):
        reg = MetricsRegistry()
        reg.inc("engine.worker.blocks", 2)
        reg.histogram("worker.h").observe(0.5)
        merge_worker_obs(Tracer(enabled=False), reg, _worker_obs())
        assert reg.get("engine.worker.blocks").value == 5
        h = reg.get("worker.h")
        assert h.count == 2
        assert h.total == 5.5

    def test_disabled_tracer_still_merges_metrics(self):
        tracer = Tracer(enabled=False)
        reg = MetricsRegistry()
        merge_worker_obs(tracer, reg, _worker_obs())
        assert tracer.spans == []
        assert reg.get("engine.worker.blocks").value == 3

    def test_capture_round_trips_through_pickle(self):
        import pickle

        tracer = Tracer(enabled=True)
        with tracer.span("w", category="engine"):
            tracer.event("e", category="engine")
        reg = MetricsRegistry()
        reg.inc("c", 2)
        obs = pickle.loads(pickle.dumps(capture_worker_obs(tracer, reg)))
        assert [s.name for s in obs.spans] == ["w"]
        assert [e.name for e in obs.events] == ["e"]
        assert obs.metrics[0].value == 2


class TestMultiprocessLanes:
    @pytest.fixture()
    def traced_run(self, monkeypatch):
        monkeypatch.setenv("REPRO_MP_WORKERS", "2")
        plan = build_plan(catalog.l2(), strategy=Strategy.DUPLICATE)
        tracer = Tracer(enabled=True)
        registry = MetricsRegistry()
        with use_tracer(tracer), use_registry(registry):
            result = run_parallel(plan, backend="multiprocess")
        return plan, tracer, registry, result

    def test_trace_has_one_lane_per_worker(self, traced_run):
        plan, tracer, _, result = traced_run
        assert result.backend == "multiprocess"
        worker_pids = {s.pid for s in tracer.spans if s.pid is not None}
        # which of the two workers a lease lands on is the pool's choice
        assert worker_pids == {r.pid for r in result.scheduler.leases}
        assert 1 <= len(worker_pids) <= 2
        assert tracer.pid not in worker_pids

    def test_worker_span_totals_equal_parent_aggregates(self, traced_run):
        plan, tracer, registry, result = traced_run
        worker_blocks = [s for s in tracer.spans
                         if s.name == "engine.block" and s.pid is not None]
        assert len(worker_blocks) == len(plan.blocks)
        assert registry.get("engine.worker.blocks").value == len(plan.blocks)
        assert registry.get("engine.worker.chunks").value \
            == result.scheduler.units
        assert registry.get("engine.worker.executed_iterations").value \
            == sum(len(b.iterations) for b in plan.blocks)

    def test_worker_spans_nest_under_the_scheduler_span(self, traced_run):
        _, tracer, _, _ = traced_run
        (sched,) = [s for s in tracer.spans if s.name == "scheduler.run"]
        roots = [s for s in tracer.spans
                 if s.pid is not None and s.parent_id == sched.span_id]
        assert len(roots) >= 2   # at least one root span per worker

    def test_chrome_trace_is_schema_valid_with_lanes(self, traced_run):
        _, tracer, _, result = traced_run
        doc = json.loads(json.dumps(chrome_trace(tracer)))
        assert validate_chrome_trace(doc) == []
        pids = {e["pid"] for e in doc["traceEvents"] if e["ph"] == "X"}
        workers = {r.pid for r in result.scheduler.leases}
        assert len(pids) == 1 + len(workers)   # parent + worker lanes


class TestDegradation:
    def test_pool_failure_degrades_with_counter_and_event(self, monkeypatch,
                                                          capsys):
        import repro.runtime.engine.multiproc as mp

        class BrokenPool:
            def __init__(self, *a, **k):
                raise OSError("no fork for you")

        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor",
                            BrokenPool)
        plan = build_plan(catalog.l2(), strategy=Strategy.DUPLICATE)
        tracer = Tracer(enabled=True)
        registry = MetricsRegistry()
        with use_tracer(tracer), use_registry(registry):
            result = run_parallel(plan, backend="multiprocess")
        # the run still completes, in-process, and says so loudly
        assert result.remote_accesses == 0
        assert registry.get("engine.multiproc.degraded").value == 1
        (evt,) = [e for e in tracer.events
                  if e.name == "engine.multiproc.degraded"]
        assert "OSError" in evt.attributes["reason"]
        assert "degrading to the compiled tier" in capsys.readouterr().err


class TestConcurrentMerge:
    """Id remapping under concurrent merges: no collisions, stable trees."""

    N_WORKERS = 8
    SPANS_EACH = 25

    def _obs(self, pid):
        obs = WorkerObs(pid=pid)
        # one root plus a chain of children, all with *overlapping* local
        # ids (every worker numbers its spans 0..n-1)
        obs.spans = [Span(name=f"w{pid}.s{i}", category="engine", span_id=i,
                          parent_id=(i - 1 if i else None),
                          start_ns=100 + i, duration_ns=1)
                     for i in range(self.SPANS_EACH)]
        obs.events = [Event(name=f"w{pid}.evt", category="engine",
                            ts_ns=200, span_id=self.SPANS_EACH - 1)]
        return obs

    def test_reserve_ids_is_atomic_across_threads(self):
        import threading

        tracer = Tracer(enabled=True)
        got = []
        barrier = threading.Barrier(self.N_WORKERS)

        def grab():
            barrier.wait()
            for _ in range(50):
                got.append(tracer.reserve_ids(3))

        threads = [threading.Thread(target=grab)
                   for _ in range(self.N_WORKERS)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        blocks = sorted(got)
        # every reserved block of 3 is disjoint from every other
        assert len(blocks) == self.N_WORKERS * 50
        assert all(b + 3 <= nxt for b, nxt in zip(blocks, blocks[1:]))

    def test_concurrent_merges_never_collide_and_keep_parenting(self):
        import threading

        tracer = Tracer(enabled=True)
        registry = MetricsRegistry()
        with tracer.span("scheduler.run") as root:
            parent_id = root.span_id
        barrier = threading.Barrier(self.N_WORKERS)

        def merge(pid):
            barrier.wait()
            merge_worker_obs(tracer, registry, self._obs(pid),
                             parent_span_id=parent_id)

        threads = [threading.Thread(target=merge, args=(pid,))
                   for pid in range(self.N_WORKERS)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

        merged = [s for s in tracer.spans if s.span_id != parent_id]
        assert len(merged) == self.N_WORKERS * self.SPANS_EACH
        ids = [s.span_id for s in merged]
        assert len(ids) == len(set(ids)), "remapped span ids collided"

        by_id = {s.span_id: s for s in tracer.spans}
        for s in merged:
            i = int(s.name.split(".s")[1])
            if i == 0:
                # worker roots re-home under the fan-out span
                assert s.parent_id == parent_id
            else:
                # chain intact: parent is the same worker's previous span
                parent = by_id[s.parent_id]
                assert parent.pid == s.pid
                assert parent.name == f"w{s.pid}.s{i - 1}"

        # every event followed its own worker's last span
        for e in tracer.events:
            owner = by_id[e.span_id]
            assert owner.name == f"w{owner.pid}.s{self.SPANS_EACH - 1}"
