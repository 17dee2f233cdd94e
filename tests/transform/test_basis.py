"""Change-of-variables basis construction (Section IV)."""

from math import gcd

import pytest

from repro.ratlinalg import RatMat, RatVec, Subspace
from repro.transform import build_transform_basis


class TestL4Basis:
    """Example 4: Psi = span{(1,-1,1)}, k=2, g=1."""

    def setup_method(self):
        self.basis = build_transform_basis(
            Subspace(3, [[1, -1, 1]]), ["i1", "i2", "i3"])

    def test_dimensions(self):
        assert self.basis.k == 2 and self.basis.g == 1
        assert self.basis.n == 3

    def test_q_rows_span_kernel(self):
        normal = RatVec([1, -1, 1])
        for q in self.basis.q_rows:
            assert q.dot(normal) == 0
            assert q.is_integral()
            assert gcd(*q.to_ints()) == 1

    def test_pivots_increasing(self):
        assert self.basis.pivot_cols == sorted(self.basis.pivot_cols)

    def test_inner_index_choice(self):
        # smallest original index independent of the kernel rows: i1
        assert self.basis.inner_positions == [0]
        assert self.basis.inner_names == ["i1"]

    def test_m_invertible_and_consistent(self):
        assert abs(self.basis.m.det()) >= 1
        m, minv = self.basis.m, self.basis.m_inv
        assert m @ minv == RatMat.identity(3)

    def test_block_coords_constant_on_psi_cosets(self):
        i1 = RatVec([1, 1, 1])
        i2 = RatVec([2, 0, 2])  # i1 + (1, -1, 1): same block
        assert self.basis.block_coords(i1) == self.basis.block_coords(i2)
        i3 = RatVec([2, 1, 1])  # i1 + (1, 0, 0): different block
        assert self.basis.block_coords(i1) != self.basis.block_coords(i3)

    def test_roundtrip(self):
        for it in [(1, 1, 1), (2, 3, 4), (4, 4, 4)]:
            x = self.basis.new_coords(it)
            back = self.basis.original_iteration(x)
            assert back == RatVec(list(it))

    def test_names(self):
        assert len(self.basis.outer_names) == 2
        assert all(n.endswith("p") for n in self.basis.outer_names)


class TestDegenerateCases:
    def test_full_psi_no_forall(self):
        b = build_transform_basis(Subspace.full(2), ["i", "j"])
        assert b.k == 0 and b.g == 2
        assert b.inner_positions == [0, 1]
        assert b.m == RatMat.identity(2)

    def test_zero_psi_all_forall(self):
        b = build_transform_basis(Subspace.zero(2), ["i", "j"])
        assert b.k == 2 and b.g == 0

    def test_l1_psi(self):
        b = build_transform_basis(Subspace(2, [[1, 1]]), ["i", "j"])
        assert b.k == 1 and b.g == 1
        # kernel of span{(1,1)} is span{(1,-1)}
        assert b.q_rows[0] in (RatVec([1, -1]), RatVec([-1, 1]))

    def test_name_collision_avoided(self):
        b = build_transform_basis(Subspace(2, [[1, 1]]), ["i", "ip"])
        assert len(set(b.outer_names) | {"i", "ip"}) == len(b.outer_names) + 2

    def test_wrong_name_count(self):
        with pytest.raises(ValueError):
            build_transform_basis(Subspace(2, [[1, 1]]), ["i"])

    def test_non_unimodular_detected(self):
        # Psi = span{(2,-1)}: kernel row (1,2); M = [[1,2],[1,0]], det -2
        b = build_transform_basis(Subspace(2, [[2, -1]]), ["i", "j"])
        assert abs(b.m.det()) == 2
