"""Chaos determinism: faulty runs must be bit-identical to clean ones.

The whole point of the recovery design is that Theorems 1-4 make a
block re-run idempotent: every block touches a disjoint slice of every
array, so replaying a lost lease cannot disturb any other block's
data.  These tests inject crashes, drops and delays and then demand
*bit-identical* merged arrays, write stamps and iteration counters
against the interpreter golden run -- on multiple seeds and fault
rates, so recovery paths (respawn, re-lease, steal) are all exercised.

Timeline shape (lease ordering, collateral kills) is deliberately NOT
asserted: it depends on OS scheduling.  Only the *data* is pinned.
"""

import pytest

from repro.core import Strategy, build_plan
from repro.lang import catalog
from repro.machine.memory import RemoteAccessError
from repro.obs.audit import inject_violation
from repro.runtime import make_arrays, merge_copies, run_parallel
from repro.runtime.scheduler import FaultPlan

SCALARS = {"D": 2.0, "F": 3.0, "G": 1.5, "K": 0.5}


def _golden(plan, backend="interp"):
    initial = make_arrays(plan.model)
    res = run_parallel(plan, initial=initial, scalars=SCALARS,
                       backend=backend)
    return res, merge_copies(res, initial)


def _chaotic(plan, chaos):
    initial = make_arrays(plan.model)
    res = run_parallel(plan, initial=initial, scalars=SCALARS,
                       backend="multiprocess", chaos=chaos)
    return res, merge_copies(res, initial)


def _assert_identical(golden, golden_merged, got, got_merged):
    assert set(got_merged) == set(golden_merged)
    for name in golden_merged:
        assert got_merged[name] == golden_merged[name], name
    assert got.write_stamps == golden.write_stamps
    assert got.executed_iterations == golden.executed_iterations
    assert got.skipped_computations == golden.skipped_computations
    assert got.remote_accesses == 0


CHAOS_GRID = [
    pytest.param("crash-prob=0.3,seed=1", id="crash-s1"),
    pytest.param("crash-prob=0.3,seed=2", id="crash-s2"),
    pytest.param("crash-prob=0.15,drop-prob=0.15,seed=3", id="mixed-s3"),
    pytest.param("drop-prob=0.5,seed=4", id="drop-s4"),
    pytest.param("slow-prob=0.5,slow-ms=20,seed=5", id="slow-s5"),
]


@pytest.mark.parametrize("chaos", CHAOS_GRID)
def test_l2_duplicate_is_bit_identical_under_chaos(chaos, monkeypatch):
    monkeypatch.setenv("REPRO_MP_WORKERS", "2")
    plan = build_plan(catalog.l2(), strategy=Strategy.DUPLICATE)
    golden, gm = _golden(plan)
    got, m = _chaotic(plan, chaos)
    _assert_identical(golden, gm, got, m)
    assert got.scheduler is not None and got.scheduler.ok


@pytest.mark.parametrize("chaos", ["crash-prob=0.3,seed=1",
                                   "drop-prob=0.4,seed=9"])
def test_matmul_is_bit_identical_under_chaos(chaos, monkeypatch):
    monkeypatch.setenv("REPRO_MP_WORKERS", "2")
    plan = build_plan(catalog.matmul(6), strategy=Strategy.DUPLICATE)
    golden, gm = _golden(plan)
    got, m = _chaotic(plan, chaos)
    _assert_identical(golden, gm, got, m)
    assert got.scheduler.retries > 0 or got.scheduler.crashes > 0


def test_chaos_matches_compiled_golden_too(monkeypatch):
    # interp and compiled agree; chaos must agree with both
    monkeypatch.setenv("REPRO_MP_WORKERS", "2")
    plan = build_plan(catalog.l5(), strategy=Strategy.DUPLICATE)
    _, interp_m = _golden(plan, backend="interp")
    _, compiled_m = _golden(plan, backend="compiled")
    _, chaos_m = _chaotic(plan, "crash-prob=0.25,seed=6")
    for name in interp_m:
        assert interp_m[name] == compiled_m[name] == chaos_m[name]


def test_faultplan_object_is_accepted_directly(monkeypatch):
    monkeypatch.setenv("REPRO_MP_WORKERS", "2")
    plan = build_plan(catalog.l1(), strategy=Strategy.DUPLICATE)
    golden, gm = _golden(plan)
    got, m = _chaotic(plan, FaultPlan(crash_prob=0.3, seed=8))
    _assert_identical(golden, gm, got, m)


def test_violating_plan_still_aborts_under_chaos(monkeypatch):
    # negative control: chaos recovery must NOT mask the communication
    # audit -- a sabotaged plan aborts exactly as it does without chaos
    monkeypatch.setenv("REPRO_MP_WORKERS", "2")
    plan = inject_violation(
        build_plan(catalog.l2(), strategy=Strategy.DUPLICATE))
    with pytest.raises(RemoteAccessError):
        run_parallel(plan, scalars=SCALARS, backend="multiprocess",
                     chaos="crash-prob=0.3,seed=1")
