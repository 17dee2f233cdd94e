"""Dense rational matrices and vectors over :class:`fractions.Fraction`.

A :class:`RatMat` is a small, immutable-by-convention dense matrix whose
entries are exact rationals.  It supports the handful of operations the
partitioning analysis needs (arithmetic, stacking, slicing, exact
equality) without pulling in sympy.  :class:`RatVec` is a thin tuple
wrapper with vector arithmetic.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Iterable, Iterator, Sequence, Union

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


def frac_gcd(a: Fraction, b: Fraction) -> Fraction:
    """gcd extended to rationals: ``gcd(p1/q1, p2/q2) = gcd(p1,p2)/lcm(q1,q2)``.

    Satisfies ``a / frac_gcd(a,b)`` and ``b / frac_gcd(a,b)`` integral.
    ``frac_gcd(0, 0) == 0``.
    """
    a, b = as_fraction(a), as_fraction(b)
    if a == 0 and b == 0:
        return Fraction(0)
    num = gcd(a.numerator, b.numerator)
    den = (a.denominator * b.denominator) // gcd(a.denominator, b.denominator)
    return Fraction(num, den)


def vec_gcd(vec: Sequence[Number]) -> Fraction:
    """gcd of a rational vector's entries (0 for the zero vector)."""
    g = Fraction(0)
    for x in vec:
        g = frac_gcd(g, as_fraction(x))
    return g


class RatVec:
    """An exact rational vector.

    Hashable and comparable, so vectors can key dicts and sets.
    """

    __slots__ = ("_data",)

    def __init__(self, entries: Iterable[Number]):
        self._data: tuple[Fraction, ...] = tuple(as_fraction(x) for x in entries)

    # -- construction -------------------------------------------------
    @staticmethod
    def zero(n: int) -> "RatVec":
        return RatVec([0] * n)

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
    def __add__(self, other: "RatVec") -> "RatVec":
        self._check_len(other)
        return RatVec(a + b for a, b in zip(self._data, other._data))

    def __sub__(self, other: "RatVec") -> "RatVec":
        self._check_len(other)
        return RatVec(a - b for a, b in zip(self._data, other._data))

    def __neg__(self) -> "RatVec":
        return RatVec(-a for a in self._data)

    def __mul__(self, k: Number) -> "RatVec":
        k = as_fraction(k)
        return RatVec(a * k for a in self._data)

    __rmul__ = __mul__

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
        g = vec_gcd(self._data)
        if g == 0:
            return self
        return RatVec(a / g for a in self._data)

    def lex_sign(self) -> int:
        """Sign of the lexicographic comparison with the zero vector.

        +1 if the first nonzero entry is positive, -1 if negative,
        0 for the zero vector.  Used for dependence direction tests.
        """
        for a in self._data:
            if a > 0:
                return 1
            if a < 0:
                return -1
        return 0

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

    @staticmethod
    def from_cols(cols: Sequence[Sequence[Number]]) -> "RatMat":
        return RatMat(cols).T

    @staticmethod
    def diag(entries: Sequence[Number]) -> "RatMat":
        n = len(entries)
        return RatMat(
            [[entries[i] if i == j else 0 for j in range(n)] for i in range(n)]
        )

    # -- container protocol ---------------------------------------------
    @property
    def shape(self) -> tuple[int, int]:
        return (self.nrows, self.ncols)

    def row(self, i: int) -> RatVec:
        return self._rows[i]

    def col(self, j: int) -> RatVec:
        return RatVec(r[j] for r in self._rows)

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
    def __add__(self, other: "RatMat") -> "RatMat":
        self._check_shape(other)
        return RatMat(a + b for a, b in zip(self._rows, other._rows))

    def __sub__(self, other: "RatMat") -> "RatMat":
        self._check_shape(other)
        return RatMat(a - b for a, b in zip(self._rows, other._rows))

    def __neg__(self) -> "RatMat":
        return RatMat(-r for r in self._rows)

    def scale(self, k: Number) -> "RatMat":
        return RatMat(r * k for r in self._rows)

    def __matmul__(self, other):
        if isinstance(other, RatVec):
            if self.ncols != len(other):
                raise ValueError(f"shape mismatch {self.shape} @ len {len(other)}")
            return RatVec(r.dot(other) for r in self._rows)
        if isinstance(other, RatMat):
            if self.ncols != other.nrows:
                raise ValueError(f"shape mismatch {self.shape} @ {other.shape}")
            ocols = [other.col(j) for j in range(other.ncols)]
            return RatMat(
                [RatVec(r.dot(c) for c in ocols) for r in self._rows]
            )
        raise TypeError(f"cannot multiply RatMat by {type(other).__name__}")

    @property
    def T(self) -> "RatMat":
        return RatMat(
            [RatVec(self._rows[i][j] for i in range(self.nrows)) for j in range(self.ncols)]
        )

    # -- structure -------------------------------------------------------
    def vstack(self, other: "RatMat") -> "RatMat":
        if self.ncols != other.ncols:
            raise ValueError("vstack column mismatch")
        return RatMat(self._rows + other._rows)

    def hstack(self, other: "RatMat") -> "RatMat":
        if self.nrows != other.nrows:
            raise ValueError("hstack row mismatch")
        return RatMat(
            [RatVec(tuple(a) + tuple(b)) for a, b in zip(self._rows, other._rows)]
        )

    def submatrix(self, rows: Sequence[int], cols: Sequence[int]) -> "RatMat":
        return RatMat([[self._rows[i][j] for j in cols] for i in rows])

    def is_zero(self) -> bool:
        return all(r.is_zero() for r in self._rows)

    def is_integral(self) -> bool:
        return all(r.is_integral() for r in self._rows)

    def to_int_rows(self) -> list[list[int]]:
        if not self.is_integral():
            raise ValueError("matrix is not integral")
        return [[int(x) for x in r] for r in self._rows]

    def is_square(self) -> bool:
        return self.nrows == self.ncols

    def det(self) -> Fraction:
        """Exact determinant via fraction-free-ish Gaussian elimination."""
        if not self.is_square():
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
        if not self.is_square():
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

    def _check_shape(self, other: "RatMat") -> None:
        if self.shape != other.shape:
            raise ValueError(f"shape mismatch: {self.shape} vs {other.shape}")
