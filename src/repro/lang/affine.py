"""Affine-expression extraction.

Subscripts and loop bounds must be affine in the loop indices:
``a_1 I_1 + ... + a_n I_n + c`` with integer coefficients.  :func:`affine_of`
converts an expression AST into an :class:`AffineExpr` or raises
:class:`NotAffineError`.  Coefficients are Python ``int``s; only a ``/``
whose quotient is not an integer makes one a :class:`~fractions.Fraction`
(which the callers then refuse as a non-integral subscript or bound).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from repro.lang.ast import ArrayRef, BinOp, Const, Expr, Name, UnaryOp
from repro.ratlinalg.matrix import Number


class NotAffineError(ValueError):
    """The expression is not affine in the loop indices."""


def _exact(x: Number) -> Number:
    """``x`` as an ``int`` when it is integral (one representation per
    value, so equal forms pickle alike)."""
    return x if type(x) is int or x.denominator != 1 else x.numerator


@dataclass(frozen=True)
class AffineExpr:
    """``sum_k coeffs[k] * index_k + const`` over a fixed index tuple."""

    indices: tuple[str, ...]
    coeffs: tuple[Number, ...]
    const: Number

    @staticmethod
    def constant(indices: Sequence[str], value: int) -> "AffineExpr":
        return AffineExpr(tuple(indices), (0,) * len(indices), value)

    @staticmethod
    def index(indices: Sequence[str], name: str) -> "AffineExpr":
        idx = tuple(indices)
        if name not in idx:
            raise NotAffineError(f"{name} is not a loop index of {idx}")
        return AffineExpr(idx, tuple(int(nm == name) for nm in idx), 0)

    # -- arithmetic (closed under affine operations) ---------------------
    def _check(self, other: "AffineExpr") -> None:
        if self.indices != other.indices:
            raise ValueError("mixing affine expressions over different index tuples")

    def __add__(self, other: "AffineExpr") -> "AffineExpr":
        self._check(other)
        return AffineExpr(self.indices,
                          tuple([_exact(a + b) for a, b in
                                 zip(self.coeffs, other.coeffs)]),
                          _exact(self.const + other.const))

    def __sub__(self, other: "AffineExpr") -> "AffineExpr":
        self._check(other)
        return AffineExpr(self.indices,
                          tuple([_exact(a - b) for a, b in
                                 zip(self.coeffs, other.coeffs)]),
                          _exact(self.const - other.const))

    def __neg__(self) -> "AffineExpr":
        return AffineExpr(self.indices, tuple(-a for a in self.coeffs), -self.const)

    def scale(self, k: Number) -> "AffineExpr":
        return AffineExpr(self.indices,
                          tuple([_exact(a * k) for a in self.coeffs]),
                          _exact(self.const * k))

    def is_constant(self) -> bool:
        return all(a == 0 for a in self.coeffs)

    def is_integral(self) -> bool:
        return (self.const.denominator == 1
                and all(a.denominator == 1 for a in self.coeffs))

    def eval(self, env: Mapping[str, int]) -> Number:
        total = self.const
        for name, a in zip(self.indices, self.coeffs):
            if a != 0:
                total += a * env[name]
        return total

    def depends_only_on_prefix(self, k: int) -> bool:
        """True if only indices[0:k] have nonzero coefficients.

        Loop bounds at depth ``k`` may reference only enclosing indices.
        """
        return all(a == 0 for a in self.coeffs[k:])

    def render(self) -> str:
        parts: list[str] = []
        for a, name in zip(self.coeffs, self.indices):
            if a == 0:
                continue
            if a == 1:
                parts.append(f"+ {name}" if parts else name)
            elif a == -1:
                parts.append(f"- {name}" if parts else f"-{name}")
            else:
                mag = a if a > 0 else -a
                ms = str(mag) if mag.denominator == 1 else f"({mag})"
                if parts:
                    parts.append(f"+ {ms}*{name}" if a > 0 else f"- {ms}*{name}")
                else:
                    parts.append(f"{ms}*{name}" if a > 0 else f"-{ms}*{name}")
        if self.const != 0 or not parts:
            if parts:
                parts.append(f"+ {self.const}" if self.const > 0 else f"- {-self.const}")
            else:
                parts.append(str(self.const))
        return " ".join(parts)


def affine_of(expr: Expr, indices: Sequence[str]) -> AffineExpr:
    """Extract an :class:`AffineExpr` over ``indices`` from an AST expression.

    Non-index names, array references, products of two index-dependent
    factors and non-exact divisions all raise :class:`NotAffineError`.
    """
    idx = tuple(indices)
    if isinstance(expr, Const):
        return AffineExpr.constant(idx, expr.value)
    if isinstance(expr, Name):
        if expr.ident in idx:
            return AffineExpr.index(idx, expr.ident)
        raise NotAffineError(
            f"name {expr.ident!r} is not a loop index; symbolic parameters are "
            "not allowed in subscripts/bounds"
        )
    if isinstance(expr, UnaryOp):
        return -affine_of(expr.operand, idx)
    if isinstance(expr, BinOp):
        if expr.op == "+":
            return affine_of(expr.left, idx) + affine_of(expr.right, idx)
        if expr.op == "-":
            return affine_of(expr.left, idx) - affine_of(expr.right, idx)
        if expr.op == "*":
            left = affine_of(expr.left, idx)
            right = affine_of(expr.right, idx)
            if left.is_constant():
                return right.scale(left.const)
            if right.is_constant():
                return left.scale(right.const)
            raise NotAffineError("product of two index-dependent expressions")
        if expr.op == "/":
            left = affine_of(expr.left, idx)
            right = affine_of(expr.right, idx)
            if not right.is_constant() or right.const == 0:
                raise NotAffineError("division by an index-dependent or zero expression")
            return left.scale(Fraction(1) / right.const)
    if isinstance(expr, ArrayRef):
        raise NotAffineError(f"array reference {expr.array} inside an affine context")
    raise NotAffineError(f"cannot interpret {expr!r} as affine")
