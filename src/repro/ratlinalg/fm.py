"""Fourier-Motzkin elimination and loop-bound synthesis, in integers.

Section IV of the paper transforms a partitioned nest into

    forall I'_{y_1} = l'_1 to u'_1
      ...
        for I_{z_g} = l'_n to u'_n

where every bound is a ``max``/``min`` of affine expressions in the
enclosing loop variables (the paper defers to the loop-bound method of
Wolf & Lam [22]).  We synthesize those bounds with exact Fourier-Motzkin
elimination: eliminate the innermost variables one by one; the
inequalities mentioning a variable at its elimination step provide its
lower/upper bound expressions.

Every :class:`Ineq` is a *primitive integer row* (gcd 1), and
:func:`eliminate` combines two rows with the positive integer
multipliers that cancel the variable.  Only a bound divides: solving
``c x + e >= 0`` for ``x`` gives ``-e / c``, an :class:`AffineForm`
holding an ``int`` where the quotient is one and an exact ``Fraction``
where it is not.

FM is exact over the rationals; for integer loops we apply ceil/floor
tightening, which can only *over*-approximate the projection
(possibly-empty inner loops execute zero iterations) and never loses an
integer point -- i.e. every original iteration is still enumerated
exactly once.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import ceil, floor, gcd
from typing import Iterable, Sequence

from repro.ratlinalg.matrix import Number


def _ratio(a: int, b: int) -> Number:
    """``a / b`` for ``b > 0``: an ``int`` when ``b`` divides ``a``."""
    return a // b if a % b == 0 else Fraction(a, b)


@dataclass(frozen=True)
class Ineq:
    """The affine inequality ``sum_j coeffs[j] * x_j + const >= 0``."""

    coeffs: tuple[int, ...]
    const: int

    @staticmethod
    def make(coeffs: Sequence[int], const: int) -> "Ineq":
        """The inequality as a primitive integer row."""
        return Ineq(tuple(coeffs), const).normalized()

    @property
    def nvars(self) -> int:
        return len(self.coeffs)

    def is_constant(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def normalized(self) -> "Ineq":
        """Divide through by the (positive) gcd of all coefficients."""
        g = gcd(*self.coeffs, self.const)
        if g <= 1:
            return self
        return Ineq(tuple(c // g for c in self.coeffs), self.const // g)


@dataclass(frozen=True)
class AffineForm:
    """``sum_j coeffs[j] * x_j + const`` -- one candidate bound expression."""

    coeffs: tuple[Number, ...]
    const: Number

    def eval(self, point: Sequence[int]) -> Number:
        return sum(c * x for c, x in zip(self.coeffs, point)) + self.const

    def render(self, names: Sequence[str]) -> str:
        """Human/Python-readable rendering, e.g. ``-i1p + 8`` or ``3``."""
        parts: list[str] = []
        for c, name in zip(self.coeffs, names):
            if c == 0:
                continue
            if c == 1:
                parts.append(f"+ {name}" if parts else name)
            elif c == -1:
                parts.append(f"- {name}" if parts else f"-{name}")
            else:
                cs = str(c) if c.denominator == 1 else f"({c})"
                if parts:
                    parts.append(f"+ {cs}*{name}" if c > 0 else f"- {str(-c) if c.denominator==1 else f'({-c})'}*{name}")
                else:
                    parts.append(f"{cs}*{name}")
        if self.const != 0 or not parts:
            cs = str(self.const)
            if parts:
                parts.append(f"+ {cs}" if self.const > 0 else f"- {-self.const}")
            else:
                parts.append(cs)
        return " ".join(parts)


@dataclass
class LoopBound:
    """Lower/upper bound candidates for one loop variable.

    The runtime value is ``max(ceil(e) for e in lowers)`` and
    ``min(floor(e) for e in uppers)``; expressions are affine in the
    *enclosing* loop variables (entries beyond the enclosing prefix are
    guaranteed zero).
    """

    var_index: int
    lowers: list[AffineForm]
    uppers: list[AffineForm]

    def lower_value(self, prefix: Sequence) -> int:
        if not self.lowers:
            raise ValueError(f"variable {self.var_index} is unbounded below")
        return max(ceil(e.eval(prefix)) for e in self.lowers)

    def upper_value(self, prefix: Sequence) -> int:
        if not self.uppers:
            raise ValueError(f"variable {self.var_index} is unbounded above")
        return min(floor(e.eval(prefix)) for e in self.uppers)

    def range_for(self, prefix: Sequence) -> range:
        return range(self.lower_value(prefix), self.upper_value(prefix) + 1)


class FMSystem:
    """A conjunction of affine inequalities over ``nvars`` variables, each
    kept once, in the order first added."""

    def __init__(self, nvars: int, ineqs: Iterable[Ineq] = ()):
        self.nvars = nvars
        self.ineqs: list[Ineq] = []
        self._seen: set[Ineq] = set()
        for q in ineqs:
            if q.nvars != nvars:
                raise ValueError("inequality arity mismatch")
            self.add(q.coeffs, q.const)

    def add(self, coeffs: Sequence[int], const: int) -> None:
        q = Ineq.make(coeffs, const)
        if q not in self._seen:
            self._seen.add(q)
            self.ineqs.append(q)

    def is_trivially_infeasible(self) -> bool:
        return any(q.is_constant() and q.const < 0 for q in self.ineqs)

    def copy(self) -> "FMSystem":
        return FMSystem(self.nvars, list(self.ineqs))


def eliminate(system: FMSystem, var: int) -> FMSystem:
    """Project the system onto the remaining variables (drop ``var``).

    Each pair of a row with a positive and a row with a negative
    coefficient on ``var`` combines, with the positive integer
    multipliers that cancel it, into one row of the projection.  The
    eliminated variable's coefficient becomes 0 in every resulting
    inequality (arity is kept so variable indices stay stable).
    """
    pos = [q for q in system.ineqs if q.coeffs[var] > 0]
    neg = [q for q in system.ineqs if q.coeffs[var] < 0]
    out = FMSystem(system.nvars,
                   [q for q in system.ineqs if q.coeffs[var] == 0])
    for p in pos:
        for q in neg:
            cp, cq = p.coeffs[var], -q.coeffs[var]
            g = gcd(cp, cq)
            mp, mq = cq // g, cp // g
            out.add([a * mp + b * mq for a, b in zip(p.coeffs, q.coeffs)],
                    p.const * mp + q.const * mq)
    return out


def bounds_for_order(system: FMSystem, order: Sequence[int]) -> list[LoopBound]:
    """Loop bounds for nesting order ``order[0]`` (outermost) ... ``order[-1]``.

    ``order`` must be a permutation of ``range(system.nvars)``.  The
    returned list is parallel to ``order``; ``bounds[j]`` expressions
    reference only ``order[:j]`` positions (re-indexed: coefficient
    ``i`` of a bound applies to the value of variable ``order[i]``).

    Raises :class:`ValueError` if the polyhedron leaves some variable
    unbounded in the needed direction.
    """
    if sorted(order) != list(range(system.nvars)):
        raise ValueError(f"order {order} is not a permutation of 0..{system.nvars - 1}")
    systems: list[FMSystem] = [None] * len(order)  # type: ignore[list-item]
    s = system.copy()
    for depth in range(len(order) - 1, -1, -1):
        systems[depth] = s
        s = eliminate(s, order[depth])
    if s.is_trivially_infeasible():
        # Empty iteration domain: produce bounds that yield empty ranges.
        zero = (0,) * len(order)
        return [LoopBound(v, [AffineForm(zero, 1)], [AffineForm(zero, 0)])
                for v in order]

    bounds: list[LoopBound] = []
    for depth, var in enumerate(order):
        sys_here = systems[depth]
        lowers: list[AffineForm] = []
        uppers: list[AffineForm] = []
        for q in sys_here.ineqs:
            cv = q.coeffs[var]
            if cv == 0:
                continue
            # Solve c_v * x_var + sum_others + const >= 0 for x_var.
            others = [0] * len(order)
            for pos_idx in range(depth):
                others[pos_idx] = q.coeffs[order[pos_idx]]
            # Any nonzero coefficient on a *later* variable would mean the
            # elimination order was violated; guard against it.
            for later in order[depth + 1:]:
                if q.coeffs[later] != 0:
                    raise AssertionError("inequality mentions an uneliminated variable")
            if cv > 0:
                lowers.append(AffineForm(
                    tuple([_ratio(-o, cv) for o in others]),
                    _ratio(-q.const, cv)))
            else:
                uppers.append(AffineForm(
                    tuple([_ratio(o, -cv) for o in others]),
                    _ratio(q.const, -cv)))
        if not lowers or not uppers:
            raise ValueError(
                f"variable x_{var} is unbounded ({'below' if not lowers else 'above'})"
            )
        bounds.append(LoopBound(var, lowers, uppers))
    return bounds
