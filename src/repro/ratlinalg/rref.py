"""Reduced row echelon form, rank, rational nullspaces, integer echelon.

These are the workhorses behind ``Ker(H)`` (Definition 4) and the
kernel-basis/pivot machinery of the program transformation (Section IV).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Sequence

from repro.ratlinalg.matrix import RatMat, RatVec, as_fraction


def rref(m) -> tuple[RatMat, list[int]]:
    """Reduced row echelon form of ``m`` (a :class:`RatMat` or rows).

    Returns ``(R, pivots)`` where ``R`` is the RREF and ``pivots`` lists
    the pivot column of each nonzero row (in row order).  Eliminated in
    integers: a row scaled by a positive rational spans the same line,
    and the RREF of a row space is unique, so each row is cleared of
    denominators, rows combine fraction-free (kept primitive), and only
    the final division of each pivot row by its pivot makes fractions.
    """
    rows = []
    for row in m.rows() if isinstance(m, RatMat) else m:
        row = [x if type(x) is int else as_fraction(x) for x in row]
        den = lcm(*(x.denominator for x in row))
        rows.append([x.numerator * (den // x.denominator) for x in row])
    nrows, ncols = len(rows), len(rows[0])
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, nrows) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        top = rows[r]
        for i in range(nrows):
            f = rows[i][c]
            if i != r and f:
                row = [top[c] * x - f * y for x, y in zip(rows[i], top)]
                g = gcd(*row) or 1      # a zero row stays zero
                rows[i] = [x // g for x in row]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return RatMat([[Fraction(x, row[c]) for x in row]
                   for row, c in zip(rows, pivots)] + rows[r:]), pivots


def nullspace(m: RatMat) -> list[RatVec]:
    """A basis of ``Ker(m) = {x : m x = 0}`` over the rationals.

    Each basis vector is scaled primitive (integral with gcd 1), which
    matches how the paper writes kernel bases (e.g. ``Ker(H_A) =
    span({(1,-1)})`` in Example 2).  Returns ``[]`` for a trivial
    kernel.
    """
    R, pivots = rref(m)
    ncols = m.ncols
    free = [c for c in range(ncols) if c not in pivots]
    basis: list[RatVec] = []
    for f in free:
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for row_idx, p in enumerate(pivots):
            v[p] = -R[row_idx, f]
        basis.append(RatVec(v).primitive())
    return basis


def row_echelon_int(rows: Sequence[RatVec]) -> tuple[list[RatVec], list[int], list[int]]:
    """Row echelon form by elementary row operations, tracking provenance.

    This implements the Section-IV step: given the kernel basis
    ``Q = {a_1, ..., a_k}``, derive the echelon rows ``a'_j`` whose first
    nonzero positions are ``y_1 < y_2 < ... < y_k``, together with the
    permutation ``sigma``: ``a'_j`` is *derived from* ``a_{sigma^{-1}(j)}``.

    Returns ``(echelon_rows, pivot_cols, origin)`` where ``origin[j]``
    is the index (into the input) of the original row the ``j``-th
    echelon row was derived from -- i.e. ``origin[j] = sigma^{-1}(j+1)-1``
    in the paper's 1-based notation.

    The provenance convention mirrors the paper's Example 4: the row
    that *supplies the pivot* at each elimination step is the original
    row assigned to that pivot position, so the transformation (1) uses
    the original (unreduced) vectors ``a_{sigma^{-1}(j)}``.
    """
    work: list[tuple[list[Fraction], int]] = [
        (list(r), idx) for idx, r in enumerate(rows)
    ]
    if not work:
        return [], [], []
    ncols = len(work[0][0])
    ech: list[tuple[list[Fraction], int]] = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(work)) if work[i][0][c] != 0), None)
        if piv is None:
            continue
        work[r], work[piv] = work[piv], work[r]
        pivot_row, pivot_origin = work[r]
        for i in range(r + 1, len(work)):
            row_i, orig_i = work[i]
            if row_i[c] != 0:
                f = row_i[c] / pivot_row[c]
                work[i] = ([x - f * y for x, y in zip(row_i, pivot_row)], orig_i)
        ech.append((pivot_row, pivot_origin))
        r += 1
        if r == len(work):
            break
    echelon_rows = [RatVec(row) for row, _ in ech]
    pivot_cols = [next(j for j, x in enumerate(row) if x != 0) for row, _ in ech]
    origin = [orig for _, orig in ech]
    return echelon_rows, pivot_cols, origin
