"""Transformed-nest enumeration: bijection, ordering, block structure."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Strategy, build_plan
from repro.lang import catalog, parse
from repro.ratlinalg import Subspace
from repro.transform import transform_nest
from tests.strategies import PLAN_KWARGS, loop_nests


def tnest_for(nest, **plan_kwargs):
    plan = build_plan(nest, **plan_kwargs)
    return plan, transform_nest(nest, plan.psi)


def assert_closed_form_is_the_partition(plan):
    """Per block of the enumerating partition, L''s inner loops at its
    forall point yield its iterations, in order; points are distinct."""
    t = transform_nest(plan.nest, plan.psi)
    points = [t.block_of_iteration(b.base_point) for b in plan.blocks]
    assert len(set(points)) == len(points)
    for b, point in zip(plan.blocks, points):
        assert tuple(t.iterations_of_block(point)) == b.iterations


#: the catalog (TRI: a non-rectangular space) and Psi = span{(2, -1)},
#: where |det M| = 2 and half of L''s inner points are no iteration
NESTS = {**catalog.ALL_LOOPS, "DET2": lambda: parse(
    "for i = 1 to 6 { for j = 1 to 6 { A[i, j] = A[i-2, j+1] + 1; } }")}


class TestClosedFormIsTheEnumeration:
    @pytest.mark.parametrize("name", sorted(NESTS))
    def test_catalog_and_non_unimodular(self, name):
        for kwargs in PLAN_KWARGS:
            assert_closed_form_is_the_partition(
                build_plan(NESTS[name](), **kwargs))

    @given(loop_nests(), st.sampled_from(PLAN_KWARGS))
    @settings(max_examples=60, deadline=None)
    def test_generated_nests(self, nest, kwargs):
        assert_closed_form_is_the_partition(build_plan(nest, **kwargs))


class TestL4:
    def test_forall_domain_matches_paper(self, l4):
        _, t = tnest_for(l4)
        blocks = list(t.iterate_blocks())
        assert len(blocks) == 37

    def test_total_iterations(self, l4):
        _, t = tnest_for(l4)
        assert sum(t.block_sizes().values()) == 64

    def test_bijection(self, l4):
        _, t = tnest_for(l4)
        got = sorted(t.all_iterations())
        assert got == sorted(itertools.product(range(1, 5), repeat=3))

    def test_blocks_agree_with_partition(self, l4):
        assert_closed_form_is_the_partition(build_plan(l4))

    def test_intra_block_lexicographic(self, l4):
        _, t = tnest_for(l4)
        for blk in t.iterate_blocks():
            its = list(t.iterations_of_block(blk))
            assert its == sorted(its)

    def test_max_block_size(self, l4):
        _, t = tnest_for(l4)
        assert max(t.block_sizes().values()) == 4


class TestVariousSpaces:
    @pytest.mark.parametrize("fn,kwargs,expected_blocks", [
        (catalog.l1, dict(), 7),
        (catalog.l2, dict(strategy=Strategy.DUPLICATE), 16),
        (catalog.l5, dict(strategy=Strategy.DUPLICATE), 16),
        (catalog.l5, dict(strategy=Strategy.DUPLICATE,
                          duplicate_arrays={"B"}), 4),
    ])
    def test_block_counts(self, fn, kwargs, expected_blocks):
        nest = fn()
        plan, t = tnest_for(nest, **kwargs)
        nonempty = [b for b, n in t.block_sizes().items() if n]
        assert len(nonempty) == expected_blocks

    @pytest.mark.parametrize("fn,kwargs", [
        (catalog.l1, dict()),
        (catalog.l2, dict(strategy=Strategy.DUPLICATE)),
        (catalog.l3, dict(strategy=Strategy.DUPLICATE, eliminate_redundant=True)),
        (catalog.l5, dict(strategy=Strategy.DUPLICATE)),
        (catalog.stencil2d, dict()),
        (catalog.triangular, dict()),
    ])
    def test_bijection_everywhere(self, fn, kwargs):
        nest = fn()
        plan, t = tnest_for(nest, **kwargs)
        got = sorted(t.all_iterations())
        assert got == sorted(plan.model.space.points())

    def test_sequential_plan_single_block(self, l5):
        plan, t = tnest_for(l5)
        assert t.k == 0
        blocks = list(t.iterate_blocks())
        assert blocks == [()]
        assert sum(1 for _ in t.iterations_of_block(())) == 64

    def test_fully_parallel_plan(self, l2):
        plan, t = tnest_for(l2, strategy=Strategy.DUPLICATE)
        assert t.k == 2 and t.g == 0
        for blk in t.iterate_blocks():
            assert sum(1 for _ in t.iterations_of_block(blk)) == 1


class TestNonUnimodular:
    def test_gap_skipping(self):
        """Psi = span{(2,-1)}: |det M| = 2, half the inner points are gaps."""
        nest = parse("for i = 1 to 4 { for j = 1 to 4 { A[i, j] = 0; } }")
        t = transform_nest(nest, Subspace(2, [[2, -1]]))
        got = sorted(t.all_iterations())
        assert got == sorted(itertools.product(range(1, 5), repeat=2))

    def test_triangular_affine_bounds(self):
        nest = catalog.triangular(5)
        t = transform_nest(nest, Subspace(2, [[1, 0]]))
        got = sorted(t.all_iterations())
        expected = [(i, j) for i in range(1, 6) for j in range(1, i + 1)]
        assert got == sorted(expected)


class TestExtendedStatements:
    def test_extended_cover_non_inner_positions(self, l4):
        _, t = tnest_for(l4)
        inner = set(t.basis.inner_positions)
        assert set(t.extended) == set(range(3)) - inner

    def test_extended_values_correct(self, l4):
        _, t = tnest_for(l4)
        for blk in t.iterate_blocks():
            for it in t.iterations_of_block(blk):
                x = [int(v) for v in t.basis.new_coords(it)]
                for pos, form in t.extended.items():
                    assert form.eval(x) == it[pos]
