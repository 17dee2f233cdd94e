"""Code generation: pseudocode and executable Python."""

import pytest

from repro.core import Strategy, build_plan
from repro.lang import catalog, parse
from repro.ratlinalg import Subspace
from repro.runtime import make_arrays, run_sequential
from repro.runtime.engine.lowering import emit_iteration_kernel
from repro.transform import compile_nest, to_pseudocode, transform_nest
from repro.transform.codegen import array_target


def kernel_source(nest, psi):
    """What ``compile_nest`` compiles: the one emitter's L'."""
    zero = (0,) * nest.depth
    return emit_iteration_kernel(nest, {}, array_target(nest),
                                 (zero, zero), False, psi)


def run_generated(nest, psi, scalars=None):
    initial = make_arrays(build_plan(nest).model)
    got = {n: a.copy() for n, a in initial.items()}
    compile_nest(transform_nest(nest, psi))(got, scalars)
    expected = {n: a.copy() for n, a in initial.items()}
    run_sequential(nest, expected, scalars=scalars)
    return got, expected


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
        assert "def _nest_kernel(_points, _arrays, _live, _rank_of):" in src
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
        nest = fn()
        plan = build_plan(nest, **kwargs)
        got, expected = run_generated(nest, plan.psi)
        assert got == expected

    def test_generated_equals_sequential_l5(self):
        nest = catalog.l5(3)
        plan = build_plan(nest, Strategy.DUPLICATE)
        got, expected = run_generated(nest, plan.psi)
        assert got["C"] == expected["C"]

    def test_non_unimodular_execution(self):
        nest = parse("""
            for i = 1 to 4 { for j = 1 to 4 {
              A[i, j] = B[i, j] * 2;
            } }
        """)
        got, expected = run_generated(nest, Subspace(2, [[2, -1]]))
        assert got["A"] == expected["A"]

    def test_triangular_execution(self):
        nest = catalog.triangular(5)
        plan = build_plan(nest)
        got, expected = run_generated(nest, plan.psi)
        assert got["T"] == expected["T"]

    def test_scalars_passed_through(self):
        nest = parse("for i = 1 to 3 { A[i] = B[i] / D; }")
        plan = build_plan(nest)
        got, expected = run_generated(nest, plan.psi, scalars={"D": 4.0})
        assert got["A"] == expected["A"]
