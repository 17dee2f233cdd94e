"""Code generation: pseudocode, and L' as the codegen tier runs it."""

from dataclasses import replace

import pytest

from repro.core import Strategy, build_plan
from repro.core.partition import all_data_partitions, iteration_partition
from repro.core.plan import PartitionPlan
from repro.lang import catalog, parse
from repro.obs.metrics import MetricsRegistry, use_registry
from repro.ratlinalg import Subspace
from repro.runtime import make_arrays, merge_copies, run_parallel, run_sequential
from repro.runtime.engine.codegen import emit
from repro.runtime.engine.codegen.geometry import grid_specs
from repro.runtime.engine.lowering import emit_iteration_kernel
from repro.transform import to_pseudocode, transform_nest


def kernel_source(nest, psi):
    """The codegen tier's L' along ``psi``, on the planner's grids."""
    plan = build_plan(nest)
    return emit_iteration_kernel(plan.model, {},
                                 emit.list_target(plan.model, grid_specs(plan)),
                                 None, False, psi)


def plan_along(nest, psi):
    """``nest`` partitioned along ``psi`` instead of the planner's Psi."""
    plan = build_plan(nest)
    blocks = iteration_partition(plan.model.space, psi)
    return PartitionPlan(
        nest=nest, model=plan.model,
        breakdown=replace(plan.breakdown, psi=psi), blocks=blocks,
        data_blocks=all_data_partitions(plan.model, blocks))


def run_generated(plan, scalars=None):
    """``plan`` run by the codegen tier's kernel -- it must not hand the
    run down to the interpreter -- and by the golden model."""
    initial = make_arrays(plan.model)
    reg = MetricsRegistry()
    with use_registry(reg):
        result = run_parallel(plan, initial=initial, scalars=scalars or {},
                              backend="codegen")
    assert reg.value("engine.codegen.runs") == 1
    assert reg.value("engine.codegen.delegated") == 0
    expected = {n: a.copy() for n, a in initial.items()}
    run_sequential(plan.nest, expected, scalars=scalars)
    return merge_copies(result, initial), expected


class TestPseudocode:
    def test_l4_structure(self, l4):
        plan = build_plan(l4)
        t = transform_nest(l4, plan.psi)
        text = to_pseudocode(t)
        assert text.count("forall") == 2 + 2  # two headers + two end-forall
        assert "for i1 =" in text
        assert "E1:" in text and "E2:" in text
        assert "end-forall" in text

    def test_sequential_no_forall(self, l5):
        plan = build_plan(l5)
        t = transform_nest(l5, plan.psi)
        text = to_pseudocode(t)
        assert "forall" not in text

    def test_statements_included(self, l1):
        plan = build_plan(l1)
        t = transform_nest(l1, plan.psi)
        text = to_pseudocode(t)
        assert "S1:" in text and "S2:" in text


class TestPythonSource:
    def test_source_compiles(self, l4):
        src = kernel_source(l4, build_plan(l4).psi)
        compile(src, "<test>", "exec")
        assert "def _cg_kernel(_points, _g, _s, _live, _rank_of):" in src
        # two forall coordinates in, one Fourier-Motzkin inner loop
        assert "(_bindex, _u0, _u1) = _pt" in src
        assert src.count("for ") == 2 and "for i0 in range(max(" in src

    def test_divisibility_guard_when_non_unimodular(self):
        nest = parse("for i = 1 to 4 { for j = 1 to 4 { A[i, j] = 1; } }")
        assert "% 2: continue" in kernel_source(
            nest, Subspace(2, [[2, -1]]))

    def test_no_guard_when_unimodular(self, l4):
        assert "continue" not in kernel_source(l4, build_plan(l4).psi)


class TestExecutionEquivalence:
    @pytest.mark.parametrize("fn,kwargs", [
        (catalog.l1, dict()),
        (catalog.l4, dict()),
        (catalog.stencil2d, dict()),
    ])
    def test_generated_equals_sequential(self, fn, kwargs):
        got, expected = run_generated(build_plan(fn(), **kwargs))
        assert got == expected

    def test_generated_equals_sequential_l5(self):
        got, expected = run_generated(
            build_plan(catalog.l5(3), Strategy.DUPLICATE))
        assert got["C"] == expected["C"]

    def test_non_unimodular_execution(self):
        nest = parse("""
            for i = 1 to 4 { for j = 1 to 4 {
              A[i, j] = B[i, j] * 2;
            } }
        """)
        psi = Subspace(2, [[2, -1]])
        assert "% 2: continue" in kernel_source(nest, psi)
        got, expected = run_generated(plan_along(nest, psi))
        assert got["A"] == expected["A"]

    def test_triangular_execution(self):
        got, expected = run_generated(build_plan(catalog.triangular(5)))
        assert got["T"] == expected["T"]

    def test_an_array_only_dead_computations_read(self):
        """``C`` is read by ``S1`` alone, whose every computation is dead
        under redundancy elimination: its grid is empty, and codegen runs
        the plan anyway (the live guard skips every read of it)."""
        nest = parse("for i = 1 to 4 { S1: A[i] = C[i]; S2: A[i] = 2; }")
        plan = build_plan(nest, eliminate_redundant=True)
        assert grid_specs(plan)["C"].size == 0
        got, expected = run_generated(plan)
        assert got["A"] == expected["A"]

    def test_scalars_passed_through(self):
        nest = parse("for i = 1 to 3 { A[i] = B[i] / D; }")
        got, expected = run_generated(build_plan(nest), scalars={"D": 4.0})
        assert got["A"] == expected["A"]
