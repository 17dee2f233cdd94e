"""SPMD per-processor code generation (the paper's stepped-forall listings)."""

import pytest

from repro.core import Strategy, build_plan
from repro.lang import catalog
from repro.mapping import shape_grid
from repro.runtime import make_arrays, run_sequential
from repro.transform import (
    compile_spmd,
    iterations_of_processor,
    to_spmd_pseudocode,
    transform_nest,
)
from repro.transform.spmd import points_of_processor


def setup(fn=catalog.l4, p=4, **plan_kwargs):
    nest = fn()
    plan = build_plan(nest, **plan_kwargs)
    t = transform_nest(nest, plan.psi)
    grid = shape_grid(p, t.k)
    return nest, plan, t, grid


class TestIterationsOfProcessor:
    def test_partition_of_space(self):
        nest, plan, t, grid = setup()
        seen = []
        for proc in grid.coords():
            seen.extend(iterations_of_processor(t, grid, proc))
        assert sorted(seen) == sorted(plan.model.space.points())
        assert len(seen) == len(set(seen))

    def test_fig10_loads(self):
        nest, plan, t, grid = setup()
        loads = {proc: sum(1 for _ in iterations_of_processor(t, grid, proc))
                 for proc in grid.coords()}
        assert loads == {(0, 0): 16, (0, 1): 16, (1, 0): 16, (1, 1): 16}

    def test_arity_check(self):
        nest, plan, t, grid = setup()
        with pytest.raises(ValueError):
            list(iterations_of_processor(t, grid, (0,)))


class TestPseudocode:
    def test_paper_l4_shape(self):
        nest, plan, t, grid = setup()
        text = to_spmd_pseudocode(t, grid)
        assert "step 2" in text          # p1 = p2 = 2
        assert "mod 2" in text
        assert text.count("forall") >= 2
        assert "E1:" in text

    def test_l5_doubleprime_shape(self):
        nest, plan, t, grid = setup(catalog.l5, p=16,
                                    strategy=Strategy.DUPLICATE)
        text = to_spmd_pseudocode(t, grid)
        assert "step 4" in text  # 4x4 grid over the (i,j) forall


class TestGeneratedCode:
    def _run_all_processors(self, fn=catalog.l4, p=4, **plan_kwargs):
        nest, plan, t, grid = setup(fn, p, **plan_kwargs)
        run_pe = compile_spmd(t, grid)
        arrays = make_arrays(plan.model)
        got = {n: a.copy() for n, a in arrays.items()}
        for proc in grid.coords():
            run_pe(proc, got, {})
        expected = {n: a.copy() for n, a in arrays.items()}
        run_sequential(nest, expected)
        return got, expected

    def test_l4_all_processors_equal_sequential(self):
        got, expected = self._run_all_processors()
        assert got == expected

    def test_l1_on_two_processors(self):
        got, expected = self._run_all_processors(catalog.l1, p=2)
        assert got == expected

    def test_processor_shares_partition_the_forall_points(self):
        nest, plan, t, grid = setup()
        shares = {p: points_of_processor(t, grid, p) for p in grid.coords()}
        assert sorted(sum(shares.values(), [])) == sorted(t.iterate_blocks())
        for proc, share in shares.items():
            assert all((u0 % 2, u1 % 2) == proc for u0, u1 in share)

    def test_single_processor_runs_everything(self):
        nest, plan, t, _ = setup()
        grid = shape_grid(1, t.k)
        count = sum(1 for _ in iterations_of_processor(t, grid, (0, 0)))
        assert count == 64
