"""Dense rational matrices and vectors over :class:`fractions.Fraction`.

A :class:`RatMat` is a small, immutable-by-convention dense matrix whose
entries are exact rationals.  It supports the handful of operations the
partitioning analysis needs (arithmetic, stacking, exact
equality) without pulling in sympy.  :class:`RatVec` is a thin tuple
wrapper with vector arithmetic.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Iterator, Union

Number = Union[int, Fraction]


def as_fraction(x: Number) -> Fraction:
    """Coerce ``x`` to an exact :class:`Fraction`.

    Floats are rejected deliberately: a float sneaking into the analysis
    would silently destroy exactness.
    """
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected int or Fraction, got {type(x).__name__}: {x!r}")


class RatVec:
    """An exact rational vector.

    Hashable and comparable, so vectors can key dicts and sets.
    """

    __slots__ = ("_data",)

    def __init__(self, entries: Iterable[Number]):
        self._data: tuple[Fraction, ...] = tuple(as_fraction(x) for x in entries)

    # -- construction -------------------------------------------------
    @staticmethod
    def unit(n: int, i: int) -> "RatVec":
        """The ``i``-th standard basis vector of length ``n``."""
        if not 0 <= i < n:
            raise IndexError(f"unit index {i} out of range for length {n}")
        return RatVec([1 if j == i else 0 for j in range(n)])

    # -- container protocol -------------------------------------------
    def __len__(self) -> int:
        return len(self._data)

    def __iter__(self) -> Iterator[Fraction]:
        return iter(self._data)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return RatVec(self._data[i])
        return self._data[i]

    def __hash__(self) -> int:
        return hash(self._data)

    def __eq__(self, other) -> bool:
        if isinstance(other, RatVec):
            return self._data == other._data
        if isinstance(other, (tuple, list)):
            return self._data == tuple(as_fraction(x) for x in other)
        return NotImplemented

    def __repr__(self) -> str:
        return f"RatVec({[str(x) for x in self._data]})"

    # -- arithmetic ----------------------------------------------------
    def __sub__(self, other: "RatVec") -> "RatVec":
        self._check_len(other)
        return RatVec(a - b for a, b in zip(self._data, other._data))

    def dot(self, other: "RatVec") -> Fraction:
        self._check_len(other)
        return sum((a * b for a, b in zip(self._data, other._data)), Fraction(0))

    def is_zero(self) -> bool:
        return all(a == 0 for a in self._data)

    def is_integral(self) -> bool:
        return all(a.denominator == 1 for a in self._data)

    def to_ints(self) -> tuple[int, ...]:
        if not self.is_integral():
            raise ValueError(f"{self!r} is not integral")
        return tuple(int(a) for a in self._data)

    def primitive(self) -> "RatVec":
        """Scale to an integer vector with gcd 1 (sign of first nonzero kept).

        This is the paper's normalization for the kernel basis ``Q``
        (``gcd(a_{i,1},...,a_{i,n}) = 1``).  The zero vector maps to
        itself.
        """
        den = lcm(*(a.denominator for a in self._data))
        ints = [a.numerator * (den // a.denominator) for a in self._data]
        g = gcd(*ints)
        if g == 0:
            return self
        return RatVec(a // g for a in ints)

    def _check_len(self, other: "RatVec") -> None:
        if len(self._data) != len(other._data):
            raise ValueError(f"length mismatch: {len(self._data)} vs {len(other._data)}")


class RatMat:
    """A dense exact-rational matrix (list of :class:`RatVec` rows)."""

    __slots__ = ("_rows", "nrows", "ncols")

    def __init__(self, rows: Iterable[Iterable[Number]]):
        self._rows: tuple[RatVec, ...] = tuple(
            r if isinstance(r, RatVec) else RatVec(r) for r in rows
        )
        self.nrows = len(self._rows)
        if self.nrows == 0:
            raise ValueError("RatMat needs at least one row; use RatMat.empty(ncols)")
        self.ncols = len(self._rows[0])
        for r in self._rows:
            if len(r) != self.ncols:
                raise ValueError("ragged rows in RatMat")

    # -- construction --------------------------------------------------
    @staticmethod
    def identity(n: int) -> "RatMat":
        return RatMat([RatVec.unit(n, i) for i in range(n)])

    # -- container protocol ---------------------------------------------
    def row(self, i: int) -> RatVec:
        return self._rows[i]

    def rows(self) -> tuple[RatVec, ...]:
        return self._rows

    def __getitem__(self, ij: tuple[int, int]) -> Fraction:
        i, j = ij
        return self._rows[i][j]

    def __eq__(self, other) -> bool:
        if not isinstance(other, RatMat):
            return NotImplemented
        return self._rows == other._rows

    def __hash__(self) -> int:
        return hash(self._rows)

    def __repr__(self) -> str:
        body = "; ".join("[" + ", ".join(str(x) for x in r) + "]" for r in self._rows)
        return f"RatMat({body})"

    # -- arithmetic ------------------------------------------------------
    def __matmul__(self, other):
        if isinstance(other, RatVec):
            if self.ncols != len(other):
                raise ValueError(f"shape mismatch {self.nrows}x{self.ncols} "
                                 f"@ len {len(other)}")
            return RatVec(r.dot(other) for r in self._rows)
        if isinstance(other, RatMat):
            if self.ncols != other.nrows:
                raise ValueError(f"shape mismatch {self.nrows}x{self.ncols} "
                                 f"@ {other.nrows}x{other.ncols}")
            ocols = [RatVec(c) for c in zip(*other._rows)]
            return RatMat(
                [RatVec(r.dot(c) for c in ocols) for r in self._rows]
            )
        raise TypeError(f"cannot multiply RatMat by {type(other).__name__}")

    # -- structure -------------------------------------------------------
    def det(self) -> Fraction:
        """Exact determinant via fraction-free-ish Gaussian elimination."""
        if self.nrows != self.ncols:
            raise ValueError("determinant of a non-square matrix")
        n = self.nrows
        a = [list(r) for r in self._rows]
        det = Fraction(1)
        for k in range(n):
            piv = next((i for i in range(k, n) if a[i][k] != 0), None)
            if piv is None:
                return Fraction(0)
            if piv != k:
                a[k], a[piv] = a[piv], a[k]
                det = -det
            det *= a[k][k]
            inv = 1 / a[k][k]
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    f = a[i][k] * inv
                    for j in range(k, n):
                        a[i][j] -= f * a[k][j]
        return det

    def inverse(self) -> "RatMat":
        """Exact inverse via Gauss-Jordan; raises on singular matrices."""
        if self.nrows != self.ncols:
            raise ValueError("inverse of a non-square matrix")
        n = self.nrows
        a = [list(r) + [Fraction(int(i == j)) for j in range(n)] for i, r in enumerate(self._rows)]
        for k in range(n):
            piv = next((i for i in range(k, n) if a[i][k] != 0), None)
            if piv is None:
                raise ZeroDivisionError("matrix is singular")
            a[k], a[piv] = a[piv], a[k]
            inv = 1 / a[k][k]
            a[k] = [x * inv for x in a[k]]
            for i in range(n):
                if i != k and a[i][k] != 0:
                    f = a[i][k]
                    a[i] = [x - f * y for x, y in zip(a[i], a[k])]
        return RatMat([row[n:] for row in a])
