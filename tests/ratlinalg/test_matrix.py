"""Unit tests for RatVec / RatMat exact arithmetic."""

from fractions import Fraction

import pytest

from repro.ratlinalg import RatMat, RatVec, as_fraction, frac_gcd, vec_gcd


class TestAsFraction:
    def test_int(self):
        assert as_fraction(3) == Fraction(3)

    def test_fraction_passthrough(self):
        assert as_fraction(Fraction(1, 2)) == Fraction(1, 2)

    def test_float_rejected(self):
        with pytest.raises(TypeError):
            as_fraction(0.5)


class TestFracGcd:
    def test_integers(self):
        assert frac_gcd(Fraction(4), Fraction(6)) == 2

    def test_rationals(self):
        g = frac_gcd(Fraction(1, 2), Fraction(1, 3))
        assert (Fraction(1, 2) / g).denominator == 1
        assert (Fraction(1, 3) / g).denominator == 1
        assert g == Fraction(1, 6)

    def test_zero_zero(self):
        assert frac_gcd(Fraction(0), Fraction(0)) == 0

    def test_vec_gcd(self):
        assert vec_gcd([2, 4, 6]) == 2
        assert vec_gcd([0, 0]) == 0
        assert vec_gcd([Fraction(1, 2), Fraction(3, 2)]) == Fraction(1, 2)


class TestRatVec:
    def test_construction_and_equality(self):
        v = RatVec([1, 2, 3])
        assert len(v) == 3
        assert v == (1, 2, 3)
        assert v == RatVec([1, 2, 3])

    def test_hashable(self):
        assert len({RatVec([1, 2]), RatVec([1, 2]), RatVec([2, 1])}) == 2

    def test_arithmetic(self):
        a, b = RatVec([1, 2]), RatVec([3, 4])
        assert a + b == RatVec([4, 6])
        assert b - a == RatVec([2, 2])
        assert -a == RatVec([-1, -2])
        assert a * 2 == RatVec([2, 4])
        assert 2 * a == RatVec([2, 4])
        assert a.dot(b) == 11

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            RatVec([1]) + RatVec([1, 2])

    def test_unit(self):
        assert RatVec.unit(3, 1) == (0, 1, 0)
        with pytest.raises(IndexError):
            RatVec.unit(2, 5)

    def test_zero_and_is_zero(self):
        assert RatVec.zero(2).is_zero()
        assert not RatVec([0, 1]).is_zero()

    def test_integrality(self):
        assert RatVec([1, 2]).is_integral()
        assert not RatVec([Fraction(1, 2), 1]).is_integral()
        assert RatVec([1, 2]).to_ints() == (1, 2)
        with pytest.raises(ValueError):
            RatVec([Fraction(1, 2)]).to_ints()

    def test_primitive(self):
        assert RatVec([2, 4]).primitive() == (1, 2)
        assert RatVec([Fraction(1, 2), Fraction(1, 2)]).primitive() == (1, 1)
        assert RatVec([0, 0]).primitive() == (0, 0)
        # sign of the leading entry is preserved
        assert RatVec([-2, 4]).primitive() == (-1, 2)

    def test_lex_sign(self):
        assert RatVec([0, 1]).lex_sign() == 1
        assert RatVec([0, -1, 5]).lex_sign() == -1
        assert RatVec([0, 0]).lex_sign() == 0

    def test_slice(self):
        v = RatVec([1, 2, 3, 4])
        assert v[1:3] == RatVec([2, 3])
        assert v[0] == 1


class TestRatMat:
    def test_shape_and_indexing(self):
        m = RatMat([[1, 2], [3, 4], [5, 6]])
        assert m.shape == (3, 2)
        assert m[2, 1] == 6
        assert m.row(0) == (1, 2)
        assert m.col(1) == (2, 4, 6)

    def test_ragged_rejected(self):
        with pytest.raises(ValueError):
            RatMat([[1, 2], [3]])

    def test_identity_and_diag(self):
        assert RatMat.identity(2) == RatMat([[1, 0], [0, 1]])
        assert RatMat.diag([2, 3]) == RatMat([[2, 0], [0, 3]])

    def test_matmul_vector(self):
        m = RatMat([[2, 0], [0, 1]])
        assert m @ RatVec([3, 4]) == (6, 4)

    def test_matmul_matrix(self):
        a = RatMat([[1, 2], [3, 4]])
        b = RatMat([[0, 1], [1, 0]])
        assert a @ b == RatMat([[2, 1], [4, 3]])

    def test_matmul_shape_error(self):
        with pytest.raises(ValueError):
            RatMat([[1, 2]]) @ RatVec([1, 2, 3])

    def test_transpose(self):
        m = RatMat([[1, 2, 3], [4, 5, 6]])
        assert m.T == RatMat([[1, 4], [2, 5], [3, 6]])
        assert m.T.T == m

    def test_stacking(self):
        a = RatMat([[1, 2]])
        b = RatMat([[3, 4]])
        assert a.vstack(b) == RatMat([[1, 2], [3, 4]])
        assert a.hstack(b) == RatMat([[1, 2, 3, 4]])

    def test_det(self):
        assert RatMat([[1, 2], [3, 4]]).det() == -2
        assert RatMat([[1, 1], [1, 1]]).det() == 0
        assert RatMat([[1, 1, 0], [-1, 0, 1], [1, 0, 0]]).det() == 1

    def test_det_non_square(self):
        with pytest.raises(ValueError):
            RatMat([[1, 2]]).det()

    def test_inverse(self):
        m = RatMat([[2, 1], [1, 1]])
        assert m @ m.inverse() == RatMat.identity(2)
        assert m.inverse() @ m == RatMat.identity(2)

    def test_inverse_singular(self):
        with pytest.raises(ZeroDivisionError):
            RatMat([[1, 1], [1, 1]]).inverse()

    def test_inverse_fractional(self):
        m = RatMat([[1, 2], [1, 0]])
        inv = m.inverse()
        assert inv[0, 0] == 0 and inv[0, 1] == 1
        assert inv[1, 0] == Fraction(1, 2)

    def test_is_integral_to_int_rows(self):
        assert RatMat([[1, 2]]).to_int_rows() == [[1, 2]]
        with pytest.raises(ValueError):
            RatMat([[Fraction(1, 2)]]).to_int_rows()

    def test_add_sub_scale(self):
        a = RatMat([[1, 2], [3, 4]])
        assert (a + a).scale(Fraction(1, 2)) == a
        assert a - a == RatMat([[0, 0], [0, 0]])
        assert (-a) == a.scale(-1)

    def test_submatrix(self):
        m = RatMat([[1, 2, 3], [4, 5, 6], [7, 8, 9]])
        assert m.submatrix([0, 2], [1, 2]) == RatMat([[2, 3], [8, 9]])
