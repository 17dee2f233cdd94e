"""Rational linear systems: one particular solution.

``solve_particular(A, b)`` answers "does ``A t = b`` have any rational
solution, and if so give me one".  The planner asks the integer question
instead (:mod:`repro.ratlinalg.smith`); this is its rational oracle.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional

from repro.ratlinalg.matrix import RatMat, RatVec
from repro.ratlinalg.rref import rref


def solve_particular(a: RatMat, b: RatVec) -> Optional[RatVec]:
    """One rational solution of ``a x = b``, or ``None`` if inconsistent.

    The solution returned is the one with zeros in all free-variable
    positions (the canonical RREF particular solution).
    """
    if a.nrows != len(b):
        raise ValueError(f"shape mismatch: {a.nrows}x{a.ncols} vs rhs of "
                         f"length {len(b)}")
    aug = RatMat([(*row, x) for row, x in zip(a.rows(), b)])
    R, pivots = rref(aug)
    ncols = a.ncols
    # Inconsistent iff some pivot lands in the augmented column.
    if ncols in pivots:
        return None
    x = [Fraction(0)] * ncols
    for row_idx, p in enumerate(pivots):
        x[p] = R[row_idx, ncols]
    return RatVec(x)

