"""Subspace algebra: spans, membership, unions, complements, coset keys."""

from fractions import Fraction

import pytest

from repro.ratlinalg import RatMat, RatVec, Subspace


def int_key(s):
    """The block key of ``iteration_partition``: ``v -> Q v``."""
    q = s.kernel_rows()
    return lambda v: tuple(sum(a * b for a, b in zip(row, v)) for row in q)


class TestConstruction:
    def test_zero_subspace(self):
        s = Subspace.zero(3)
        assert s.dim == 0 and s.is_zero() and not s.is_full()

    def test_full(self):
        s = Subspace.full(2)
        assert s.dim == 2 and s.is_full()

    def test_dedup_dependent_vectors(self):
        s = Subspace(2, [[1, 1], [2, 2], [3, 3]])
        assert s.dim == 1

    def test_zero_vectors_ignored(self):
        assert Subspace(2, [[0, 0]]).dim == 0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            Subspace(2, [[1, 2, 3]])

    def test_canonical_equality(self):
        # same subspace from different generators
        a = Subspace(2, [[1, 1]])
        b = Subspace(2, [[Fraction(1, 2), Fraction(1, 2)]])
        c = Subspace(2, [[-3, -3]])
        assert a == b == c
        assert hash(a) == hash(b)

    def test_kernel_of(self):
        s = Subspace.kernel_of(RatMat([[1, 1], [1, 1]]))
        assert s.dim == 1
        assert RatVec([1, -1]) in s


class TestMembership:
    def test_contains(self):
        s = Subspace(3, [[1, 0, 0], [0, 1, 0]])
        assert RatVec([2, 3, 0]) in s
        assert RatVec([0, 0, 1]) not in s
        assert RatVec([0, 0, 0]) in s

    def test_contains_fractional(self):
        s = Subspace(2, [[1, 1]])
        assert RatVec([Fraction(1, 2), Fraction(1, 2)]) in s

    def test_wrong_length(self):
        assert RatVec([1, 2, 3]) not in Subspace(2, [[1, 0]])


class TestAlgebra:
    def test_union_span(self):
        a = Subspace(2, [[1, 0]])
        b = Subspace(2, [[0, 1]])
        assert (a | b).is_full()
        assert (a | a) == a

    def test_union_theorem1_l1(self):
        # Psi = span({(1,1)} ∪ {(1,1)} ∪ φ) = span{(1,1)}
        psi_a = Subspace(2, [[1, 1]])
        psi_c = Subspace(2, [[1, 1]])
        psi_b = Subspace.zero(2)
        psi = psi_a | psi_c | psi_b
        assert psi.dim == 1 and RatVec([1, 1]) in psi

    def test_with_vectors(self):
        s = Subspace.zero(3).with_vectors([[1, 0, 0]])
        assert s.dim == 1

    def test_is_subspace_of(self):
        a = Subspace(3, [[1, 0, 0]])
        b = Subspace(3, [[1, 0, 0], [0, 1, 0]])
        assert a.is_subspace_of(b)
        assert not b.is_subspace_of(a)
        assert Subspace.zero(3).is_subspace_of(a)

    def test_intersect(self):
        a = Subspace(3, [[1, 0, 0], [0, 1, 0]])
        b = Subspace(3, [[0, 1, 0], [0, 0, 1]])
        inter = a.intersect(b)
        assert inter.dim == 1 and RatVec([0, 1, 0]) in inter


class TestComplementsAndProjections:
    def test_orthogonal_complement_dims(self):
        s = Subspace(3, [[1, -1, 1]])
        comp = s.orthogonal_complement()
        assert comp.dim == 2
        for v in comp.basis():
            assert v.dot(RatVec([1, -1, 1])) == 0

    def test_complement_of_zero_and_full(self):
        assert Subspace.zero(2).orthogonal_complement().is_full()
        assert Subspace.full(2).orthogonal_complement().is_zero()

    def test_double_complement(self):
        s = Subspace(3, [[1, 2, 3], [0, 1, 1]])
        assert s.orthogonal_complement().orthogonal_complement() == s

    def test_kernel_rows_are_primitive_integers_annihilating_the_basis(self):
        s = Subspace(3, [[2, 4, 6]])
        q = s.kernel_rows()
        assert q == ((3, 0, -1), (0, 3, -2))
        for row in q:
            assert all(type(x) is int for x in row)
            assert RatVec(row).dot(RatVec([1, 2, 3])) == 0

    def test_coset_key_partition_criterion(self):
        k = int_key(Subspace(2, [[1, 1]]))
        assert k((1, 1)) == k((3, 3))
        assert k((1, 2)) == k((2, 3))
        assert k((1, 1)) != k((1, 2))

    def test_coset_key_zero_subspace_identity(self):
        assert int_key(Subspace.zero(2))((3, 4)) == (3, 4)

    def test_coset_key_full_subspace_single_class(self):
        k = int_key(Subspace.full(2))
        assert k((3, 4)) == k((-7, 0)) == ()
