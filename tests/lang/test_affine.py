"""Affine-expression extraction."""

from fractions import Fraction

import pytest

from repro.lang import NotAffineError, affine_of, parse
from repro.lang.affine import AffineExpr
from repro.lang.ast import ArrayRef, BinOp, Const, Name, UnaryOp


IDX = ("i", "j")


def ae(expr):
    return affine_of(expr, IDX)


class TestExtraction:
    def test_constant(self):
        a = ae(Const(5))
        assert a.is_constant() and a.const == 5

    def test_index(self):
        a = ae(Name("i"))
        assert a.coeffs == (1, 0) and a.const == 0

    def test_linear_combination(self):
        # 2*i - j + 3
        expr = BinOp("+", BinOp("-", BinOp("*", Const(2), Name("i")), Name("j")),
                     Const(3))
        a = ae(expr)
        assert a.coeffs == (2, -1) and a.const == 3

    def test_index_times_constant_right(self):
        a = ae(BinOp("*", Name("j"), Const(4)))
        assert a.coeffs == (0, 4)

    def test_unary_minus(self):
        a = ae(UnaryOp("-", Name("i")))
        assert a.coeffs == (-1, 0)

    def test_division_by_constant(self):
        a = ae(BinOp("/", Name("i"), Const(2)))
        assert a.coeffs == (Fraction(1, 2), 0)
        assert not a.is_integral()

    def test_nested_parenthesized(self):
        # (i + j) * 2 - (j - 1)
        expr = BinOp("-", BinOp("*", BinOp("+", Name("i"), Name("j")), Const(2)),
                     BinOp("-", Name("j"), Const(1)))
        a = ae(expr)
        assert a.coeffs == (2, 1) and a.const == 1


class TestRejection:
    def test_free_scalar(self):
        with pytest.raises(NotAffineError):
            ae(Name("N"))

    def test_product_of_indices(self):
        with pytest.raises(NotAffineError):
            ae(BinOp("*", Name("i"), Name("j")))

    def test_division_by_index(self):
        with pytest.raises(NotAffineError):
            ae(BinOp("/", Const(1), Name("i")))

    def test_division_by_zero(self):
        with pytest.raises(NotAffineError):
            ae(BinOp("/", Name("i"), Const(0)))

    def test_array_ref(self):
        with pytest.raises(NotAffineError):
            ae(ArrayRef("A", (Name("i"),)))


class TestEvaluation:
    def test_eval_env(self):
        a = ae(BinOp("+", BinOp("*", Const(2), Name("i")), Name("j")))
        assert a.eval({"i": 3, "j": 4}) == 10

    def test_eval_point(self):
        a = ae(BinOp("-", Name("j"), Const(1)))
        assert a.eval(dict(zip(IDX, (5, 2)))) == 1

    def test_prefix_dependency(self):
        a = ae(Name("i"))
        assert a.depends_only_on_prefix(1)
        b = ae(Name("j"))
        assert not b.depends_only_on_prefix(1)
        assert b.depends_only_on_prefix(2)

    def test_coeffs_are_ints(self):
        """Plain ``int``s, also where a ``/`` divides exactly; a
        ``Fraction`` only where it does not."""
        a = ae(BinOp("+", Name("i"), Name("j")))
        halved = ae(BinOp("/", BinOp("*", Const(4), Name("i")), Const(2)))
        assert a.coeffs == (1, 1) and halved.coeffs == (2, 0)
        for form in (a, halved):
            assert all(type(x) is int for x in (*form.coeffs, form.const))
        assert type(ae(BinOp("/", Name("i"), Const(2))).coeffs[0]) \
            is Fraction


class TestArithmetic:
    def test_add_sub_scale_neg(self):
        a = AffineExpr.index(IDX, "i")
        b = AffineExpr.constant(IDX, 3)
        s = a + b
        assert s.coeffs == (1, 0) and s.const == 3
        assert (s - b).coeffs == (1, 0) and (s - b).const == 0
        assert (-s).const == -3
        assert s.scale(2).const == 6

    def test_mixed_index_tuples_rejected(self):
        a = AffineExpr.index(("i",), "i")
        b = AffineExpr.index(("i", "j"), "i")
        with pytest.raises(ValueError):
            _ = a + b

    def test_unknown_index(self):
        with pytest.raises(NotAffineError):
            AffineExpr.index(IDX, "k")

    def test_render(self):
        a = ae(BinOp("-", BinOp("*", Const(2), Name("i")), Const(1)))
        assert a.render() == "2*i - 1"
        assert AffineExpr.constant(IDX, 0).render() == "0"


class TestFromParsedSource:
    def test_l1_subscripts(self):
        nest = parse("for i = 1 to 4 { for j = 1 to 4 { A[2*i, j - 1] = 0; } }")
        lhs = nest.statements[0].lhs
        a0 = affine_of(lhs.subscripts[0], nest.indices)
        a1 = affine_of(lhs.subscripts[1], nest.indices)
        assert a0.coeffs == (2, 0) and a0.const == 0
        assert a1.coeffs == (0, 1) and a1.const == -1
