"""Iteration-space queries."""

import pytest

from repro.lang import IterationSpace, catalog, parse
from repro.ratlinalg import RatVec
from fractions import Fraction


class TestRectangular:
    def test_size_and_enumeration(self, l1):
        sp = IterationSpace(l1)
        assert sp.is_rectangular()
        assert sp.size() == 16
        pts = list(sp.iterate())
        assert len(pts) == 16
        assert pts == sorted(pts)  # lexicographic
        assert pts[0] == (1, 1) and pts[-1] == (4, 4)

    def test_contains(self, l1):
        sp = IterationSpace(l1)
        assert (1, 1) in sp and (4, 4) in sp
        assert (0, 1) not in sp and (5, 1) not in sp
        assert (1,) not in sp

    def test_fractional_not_contained(self, l1):
        sp = IterationSpace(l1)
        assert RatVec([Fraction(3, 2), 1]) not in sp

    def test_bounding_and_difference_box(self, l1):
        sp = IterationSpace(l1)
        assert sp.bounding_box() == ((1, 1), (4, 4))
        assert sp.difference_box() == ((-3, -3), (3, 3))

    def test_pair_exists(self, l1):
        sp = IterationSpace(l1)
        assert sp.pair_exists(RatVec([3, 3]))
        assert sp.pair_exists(RatVec([-3, 0]))
        assert not sp.pair_exists(RatVec([4, 0]))
        assert not sp.pair_exists(RatVec([Fraction(1, 2), 0]))

    def test_3d(self, l4):
        sp = IterationSpace(l4)
        assert sp.size() == 64
        assert sp.bounding_box() == ((1, 1, 1), (4, 4, 4))


class TestAffineBounded:
    def test_triangular_enumeration(self):
        sp = IterationSpace(catalog.triangular(4))
        pts = list(sp.iterate())
        assert pts == [(i, j) for i in range(1, 5) for j in range(1, i + 1)]
        assert sp.size() == 10
        assert not sp.is_rectangular()

    def test_triangular_contains(self):
        sp = IterationSpace(catalog.triangular(4))
        assert (3, 3) in sp
        assert (3, 4) not in sp

    def test_triangular_bounding_box(self):
        sp = IterationSpace(catalog.triangular(4))
        assert sp.bounding_box() == ((1, 1), (4, 4))

    def test_triangular_pair_exists_exact(self):
        sp = IterationSpace(catalog.triangular(4))
        # (0,3): needs (i,j) and (i,j+3) both valid: (4,1)->(4,4) works
        assert sp.pair_exists(RatVec([0, 3]))
        # (-3,3): (4,1)->(1,4) invalid since j<=i; no pair at all
        assert not sp.pair_exists(RatVec([-3, 3]))

    def test_lower_bound_affine(self):
        nest = parse("for i = 1 to 3 { for j = i to 3 { A[i,j] = 0; } }")
        sp = IterationSpace(nest)
        assert list(sp.iterate()) == [(1, 1), (1, 2), (1, 3), (2, 2), (2, 3), (3, 3)]

    def test_empty_space(self):
        nest = parse("for i = 3 to 1 { A[i] = 0; }")
        sp = IterationSpace(nest)
        assert sp.size() == 0
        assert list(sp.iterate()) == []
        # the rank's closed form comes from the bounds; no point is ranked
        assert sp.rank_strides() == ((3,), (1,))

    def test_bounds_at(self):
        sp = IterationSpace(catalog.triangular(5))
        assert sp.bounds_at((), 0) == (1, 5)
        assert sp.bounds_at((3,), 1) == (1, 3)
