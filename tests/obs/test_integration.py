"""End-to-end observability: spans and metrics from real runs.

Covers the issue's acceptance criteria directly: the exported
``runtime.remote_accesses`` metric equals
``ParallelResult.remote_accesses`` exactly, and one traced
compile-execute-simulate run yields pipeline, engine, cache and machine
spans.
"""

from repro.core import Strategy, build_plan
from repro.lang import catalog
from repro.obs import MetricsRegistry, Tracer, use_registry, use_tracer
from repro.pipeline import PLAN_CACHE, PipelineConfig, run_pipeline
from repro.runtime.machine_run import run_on_machine
from repro.runtime.parallel import run_parallel
from repro.runtime.verify import verify_plan


class TestMetricsFromRuns:
    def test_remote_accesses_metric_is_exact(self):
        plan = build_plan(catalog.l1())
        reg = MetricsRegistry()
        with use_registry(reg):
            result = run_parallel(plan)
        assert reg.value("runtime.remote_accesses") == result.remote_accesses
        assert (reg.value("runtime.executed_iterations")
                == result.executed_iterations)
        assert reg.value("runtime.blocks") == len(plan.blocks)
        assert reg.value("runtime.runs") == 1
        assert reg.value(f"runtime.engine.runs.{result.backend}") == 1

    def test_gauges_reflect_last_run_counters_accumulate(self):
        plan = build_plan(catalog.l1())
        reg = MetricsRegistry()
        with use_registry(reg):
            run_parallel(plan)
            result = run_parallel(plan)
        assert reg.value("runtime.runs") == 2
        assert reg.value("runtime.remote_accesses") == result.remote_accesses

    def test_verify_publishes(self):
        plan = build_plan(catalog.l1())
        reg = MetricsRegistry()
        with use_registry(reg):
            report = verify_plan(plan)
        assert report.ok
        assert reg.value("verify.runs") == 1
        assert reg.value("verify.ok") == 1
        assert reg.value("verify.mismatches") == 0

    def test_machine_stats_absorbed(self):
        plan = build_plan(catalog.l2(), strategy=Strategy.DUPLICATE)
        reg = MetricsRegistry()
        with use_registry(reg):
            mrun = run_on_machine(plan, p=4, verify=False)
        st = mrun.stats
        assert reg.value("machine.makespan") == st.makespan
        assert reg.value("machine.messages") == st.messages
        assert reg.value("machine.remote_accesses") == st.remote_accesses
        assert (reg.value("machine.total_iterations")
                == st.total_iterations)

    def test_pipeline_timings_absorbed(self):
        PLAN_CACHE.clear()
        reg = MetricsRegistry()
        with use_registry(reg):
            run_pipeline(catalog.l1(), PipelineConfig(), upto="partition")
        h = reg.get("pipeline.pass.seconds.partition")
        assert h is not None and h.count == 1
        assert reg.value("cache.miss") == 1


class TestSpansFromRuns:
    def test_parallel_run_spans(self):
        plan = build_plan(catalog.l1())
        tracer = Tracer()
        with use_tracer(tracer):
            run_parallel(plan)
        (rb,) = tracer.find("engine.run_blocks")
        assert rb.attributes["backend"] == "interp"
        blocks = tracer.find("engine.block")
        assert len(blocks) == len(plan.blocks)
        assert all("remote_accesses" in b.attributes for b in blocks)
        assert all("statements" in b.attributes for b in blocks)
        (alloc,) = tracer.find("runtime.allocate")
        assert alloc.attributes["words"] > 0

    def test_machine_run_spans(self):
        plan = build_plan(catalog.l2(), strategy=Strategy.DUPLICATE)
        tracer = Tracer()
        with use_tracer(tracer):
            run_on_machine(plan, p=4)
        names = {s.name for s in tracer.find(category="machine")}
        assert {"machine.run", "machine.distribute", "machine.execute",
                "machine.merge", "machine.verify"} <= names
        (run,) = tracer.find("machine.run")
        assert run.attributes["remote_accesses"] == 0
        assert run.attributes["makespan"] > 0

    def test_cache_lookup_spans(self):
        PLAN_CACHE.clear()
        tracer = Tracer()
        with use_tracer(tracer):
            build_plan(catalog.l1())
            build_plan(catalog.l1())
        lookups = tracer.find("cache.lookup", category="cache")
        outcomes = [s.attributes["outcome"] for s in lookups]
        assert "miss" in outcomes and "hit" in outcomes

    def test_pipeline_pass_spans(self):
        PLAN_CACHE.clear()
        tracer = Tracer()
        with use_tracer(tracer):
            ctx = run_pipeline(catalog.l1(), PipelineConfig(),
                               upto="partition")
        passes = tracer.find(category="pipeline")
        assert [s.name for s in passes] == [f"pass:{name}"
                                            for name in ctx.completed]
        assert "pass:partition" in {s.name for s in passes}
        assert "plan" in passes[-1].attributes["artifacts"]
        assert all(s.duration_ns >= 0 for s in passes)

    def test_session_trace_records_one_span_per_pass(self):
        from repro.api import Session

        PLAN_CACHE.clear()
        with Session(catalog.l2(), trace=True) as s:
            s.plan()
        names = [sp.name for sp in s.tracer.find(category="pipeline")]
        assert names == ["pass:extract-refs", "pass:eliminate-redundancy",
                         "pass:choose-space", "pass:partition"]
        # the degenerate-Psi warning of L2 rides along as an event
        assert any(e.name == "diagnostic:degenerate-psi"
                   for e in s.tracer.events)
