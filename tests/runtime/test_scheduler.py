"""The dynamic block scheduler: faults, leases, recovery, timelines."""

import os

import pytest

from repro.core import Strategy, build_plan
from repro.lang import catalog
from repro.machine.memory import RemoteAccessError
from repro.obs.audit import inject_violation
from repro.obs.metrics import MetricsRegistry, use_registry
from repro.obs.trace import Tracer, use_tracer
from repro.runtime.parallel import run_parallel
from repro.runtime.scheduler import (
    FaultPlan,
    RetryPolicy,
    SchedulerError,
    current_fault_plan,
    default_batch_size,
    render_timeline,
    use_fault_plan,
)
from repro.runtime.scheduler.faults import CRASH, DROP, SLOW


class TestFaultPlan:
    def test_inactive_by_default(self):
        assert not FaultPlan().active
        assert FaultPlan().decision(0, 0) is None

    def test_validation(self):
        with pytest.raises(ValueError):
            FaultPlan(crash_prob=1.5)
        with pytest.raises(ValueError):
            FaultPlan(slow_ms=-1)

    def test_draw_is_deterministic_and_uniformish(self):
        fp = FaultPlan(seed=42)
        assert fp.draw(3, 1) == fp.draw(3, 1)
        assert fp.draw(3, 1) != fp.draw(3, 2)
        assert fp.draw(3, 1) != FaultPlan(seed=43).draw(3, 1)
        draws = [fp.draw(u, a) for u in range(50) for a in range(4)]
        assert all(0.0 <= d < 1.0 for d in draws)
        assert 0.3 < sum(draws) / len(draws) < 0.7

    def test_decision_classifies_exclusively(self):
        fp = FaultPlan(crash_prob=0.3, drop_prob=0.3, slow_prob=0.4, seed=1)
        seen = {fp.decision(u, a) for u in range(40) for a in range(3)}
        assert seen <= {CRASH, DROP, SLOW}
        assert CRASH in seen and DROP in seen and SLOW in seen
        # certainty at the extremes
        assert FaultPlan(crash_prob=1.0).decision(7, 0) == CRASH
        assert FaultPlan(drop_prob=1.0).decision(7, 0) == DROP

    def test_parse_round_trip(self):
        fp = FaultPlan.parse("crash-prob=0.2,slow_ms=30,seed=7,"
                             "slow-blocks=2:5")
        assert fp.crash_prob == 0.2
        assert fp.slow_ms == 30
        assert fp.slow_blocks == (2, 3, 4)
        assert FaultPlan.parse(fp.describe()) == fp

    def test_parse_edge_cases(self):
        assert FaultPlan.parse(None) is None
        assert FaultPlan.parse("") is None
        fp = FaultPlan(crash_prob=0.5)
        assert FaultPlan.parse(fp) is fp
        with pytest.raises(ValueError):
            FaultPlan.parse("bogus-key=1")
        with pytest.raises(ValueError):
            FaultPlan.parse("crash-prob")

    def test_scoping_and_env(self, monkeypatch):
        # chaos comes from a scope (--chaos / chaos= / use_fault_plan),
        # never from the environment
        monkeypatch.setenv("REPRO_CHAOS", "crash-prob=0.1")
        assert current_fault_plan() is None
        with use_fault_plan("drop-prob=0.5") as fp:
            assert current_fault_plan() is fp
            assert fp.drop_prob == 0.5
            with use_fault_plan(None):
                # an explicit inner None disables chaos for its scope
                assert current_fault_plan() is None
            assert current_fault_plan() is fp
        assert current_fault_plan() is None


class TestPolicyAndBatching:
    def test_backoff_is_capped_exponential(self):
        p = RetryPolicy(backoff_base_s=0.02, backoff_cap_s=0.1)
        assert p.backoff(1) == 0.02
        assert p.backoff(2) == 0.04
        assert p.backoff(10) == 0.1

    def test_default_batch_sizes(self):
        # ~4 units per worker so the queue can rebalance
        assert default_batch_size(64, 4) == 4
        assert default_batch_size(3, 8) == 1


def _plan():
    return build_plan(catalog.l2(), strategy=Strategy.DUPLICATE)


def _run(plan, chaos=None, **env):
    """A multiprocess run with a scoped registry; returns (result, reg)."""
    registry = MetricsRegistry()
    with use_registry(registry), use_fault_plan(chaos):
        result = run_parallel(plan, backend="multiprocess")
    return result, registry


class TestScheduledRun:
    def test_clean_run_has_one_lease_per_unit(self, monkeypatch):
        monkeypatch.setenv("REPRO_MP_WORKERS", "2")
        res, reg = _run(_plan())
        sres = res.scheduler
        assert sres is not None and sres.ok
        assert len(sres.leases) == sres.units
        assert sres.retries == 0 and sres.respawns == 0
        assert all(r.outcome == "ok" for r in sres.leases)
        assert reg.value("scheduler.leases") == sres.units
        assert res.ok and "ok" in res.summary()
        assert res.to_json()["scheduler"]["mode"] == "dynamic"

    def test_crash_recovery_is_counted_and_correct(self, monkeypatch):
        monkeypatch.setenv("REPRO_MP_WORKERS", "2")
        plan = _plan()
        golden = run_parallel(plan, backend="interp")
        res, reg = _run(plan, chaos="crash-prob=0.4,seed=11")
        sres = res.scheduler
        assert sres.recovered
        assert sres.crashes > 0 and sres.respawns > 0 and sres.retries > 0
        assert reg.value("scheduler.retries") == sres.retries
        assert reg.value("scheduler.respawns") == sres.respawns
        assert res.write_stamps == golden.write_stamps
        assert res.executed_iterations == golden.executed_iterations

    def test_dropped_results_are_retried(self, monkeypatch):
        monkeypatch.setenv("REPRO_MP_WORKERS", "2")
        res, reg = _run(_plan(), chaos="drop-prob=1,seed=0")
        sres = res.scheduler
        assert sres.recovered
        assert sres.dropped > 0
        # drop-prob=1 with the shielded final attempt: every unit drops
        # on every attempt but the last
        assert sres.dropped == sres.units * 3
        assert reg.value("scheduler.dropped") == sres.dropped

    def test_expired_leases_are_stolen(self, monkeypatch):
        from repro.runtime.scheduler import BlockScheduler

        monkeypatch.setenv("REPRO_MP_WORKERS", "2")
        plan = _plan()
        golden = run_parallel(plan, backend="interp")

        # drive the scheduler directly so the policy is controllable
        from repro.machine.memory import LocalMemory
        from repro.runtime.arrays import make_arrays
        from repro.runtime.parallel import ParallelResult

        initial = make_arrays(plan.model)

        memories = {}
        for b in plan.blocks:
            mem = LocalMemory(pid=b.index, strict=True)
            for name, dblocks in plan.data_blocks.items():
                src = initial[name]
                mem.allocate(name, dblocks[b.index].elements,
                             init=lambda c, s=src: s[c])
            memories[b.index] = mem
        result = ParallelResult(plan=plan, memories=memories,
                                block_to_pid={b.index: b.index
                                              for b in plan.blocks})
        sched = BlockScheduler(
            plan, memories, {}, workers=2,
            faults=FaultPlan(slow_prob=1.0, slow_ms=200, seed=5),
            policy=RetryPolicy(max_attempts=4, lease_timeout_s=0.03,
                               backoff_base_s=0.001, backoff_cap_s=0.005),
        )
        registry = MetricsRegistry()
        with use_registry(registry):
            sres = sched.run(result)
        assert sres.recovered
        assert sres.leases_expired > 0
        assert sres.blocks_stolen > 0
        assert registry.value("scheduler.leases_expired") \
            == sres.leases_expired
        assert result.write_stamps == golden.write_stamps

    def test_non_recovery_raises_scheduler_error(self, monkeypatch):
        monkeypatch.setenv("REPRO_MP_WORKERS", "1")
        with pytest.raises(SchedulerError):
            _run(_plan(), chaos="crash-prob=1,shield-final=0")

    def test_unsafe_retry_raises_remote_access_error(self, monkeypatch):
        monkeypatch.setenv("REPRO_MP_WORKERS", "1")
        plan = inject_violation(_plan())
        with pytest.raises(RemoteAccessError):
            _run(plan, chaos="crash-prob=1,seed=2")

    def test_worker_lanes_hang_off_the_scheduler_span(self, monkeypatch):
        monkeypatch.setenv("REPRO_MP_WORKERS", "2")
        tracer = Tracer(enabled=True)
        registry = MetricsRegistry()
        with use_tracer(tracer), use_registry(registry), \
                use_fault_plan("crash-prob=0.5,seed=4"):
            run_parallel(_plan(), backend="multiprocess")
        (sched,) = [s for s in tracer.spans if s.name == "scheduler.run"]
        worker_roots = [s for s in tracer.spans
                        if s.pid is not None
                        and s.parent_id == sched.span_id]
        assert worker_roots
        retries = [e for e in tracer.events if e.name == "scheduler.retry"]
        assert retries


class TestTimeline:
    def test_render_timeline(self, monkeypatch):
        monkeypatch.setenv("REPRO_MP_WORKERS", "2")
        res, _ = _run(_plan(), chaos="crash-prob=0.4,seed=11")
        text = render_timeline(res.scheduler)
        assert "scheduler[dynamic]" in text
        assert "outcome" in text and "glyphs" in text
        assert "X" in text      # at least one crash glyph with this seed
        assert "#" in text      # and completed leases

    def test_empty_timeline_is_just_the_summary(self):
        from repro.runtime.scheduler import SchedulerResult

        sres = SchedulerResult(mode="dynamic", units=0, blocks=0,
                               workers=1, batch=1)
        assert render_timeline(sres) == sres.summary()
