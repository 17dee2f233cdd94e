"""Array storage: one flat list per array.

In the paper a data space is an index set addressed by ``H i + c``;
:class:`DataSpace` is that and nothing more -- ``values``, the
row-major Python floats of ``[lo_1:hi_1, ..., lo_d:hi_d]``, with
per-dimension origins so the paper's arbitrary subscript ranges (e.g.
array A of L1 spanning ``[0:8, 0:4]``) map directly.  It is the same
representation as a run's flat store (:mod:`repro.runtime.layout`),
which is filled by slicing it, and what the golden model
(:mod:`repro.runtime.seq`) runs on in place.  Footprints are computed
exactly: a subscript row of ``H i + c`` is affine, so its extrema over
the iteration space's bounding box take one bound per coordinate
(:func:`affine_range`, which the golden model's in-bounds proof,
:meth:`DataSpace.slot_form`, uses too).
"""

from __future__ import annotations

import itertools
import math
from operator import mul, ne
from typing import Iterable, Iterator

from repro._lazy import Sidecar
from repro.analysis.references import ReferenceModel
from repro.runtime.layout import c_strides

Coords = tuple[int, ...]


class DataSpace:
    """A dense array over ``[lo_1:hi_1, ..., lo_d:hi_d]`` (inclusive)."""

    def __init__(self, name: str, lo: Coords, hi: Coords, fill: float = 0.0):
        if len(lo) != len(hi):
            raise ValueError("lo/hi rank mismatch")
        if any(l > h for l, h in zip(lo, hi)):
            raise ValueError(f"empty DataSpace bounds {lo}..{hi}")
        self.name = name
        self.lo = tuple(lo)
        self.hi = tuple(hi)
        shape = tuple(h - l + 1 for l, h in zip(lo, hi))
        #: the row-major values, every one a Python float
        self.values: list[float] = [float(fill)] * math.prod(shape)
        self._dims = tuple(zip(self.lo, shape, c_strides(shape)))

    @property
    def data(self) -> list:
        """The values as nested row lists in the array's shape (a
        copy): the form ``json.dumps`` and array libraries take."""
        rows: list = list(self.values)
        for _, n, _ in self._dims[:0:-1]:
            rows = [rows[k:k + n] for k in range(0, len(rows), n)]
        return rows

    def offset(self, coords: Coords) -> int:
        """Position of ``coords`` in :attr:`values` -- the one statement
        of the rank and bounds checks."""
        if len(coords) != len(self._dims):
            raise IndexError(f"{self.name}: rank mismatch {coords}")
        off = 0
        for c, (lo, n, stride) in zip(coords, self._dims):
            p = int(c) - lo
            if not 0 <= p < n:
                raise IndexError(f"{self.name}{list(coords)} outside "
                                 f"[{self.lo}..{self.hi}]")
            off += p * stride
        return off

    def slot_form(self, forms: list, box: tuple):
        """``(a, k)`` with ``a . it + k`` the position in :attr:`values`
        of a reference whose subscripts are the integer forms ``forms``
        (``[a_1, ..., a_n, k]`` each) when, over ``box``, every one stays
        inside its dimension: no iteration there needs :meth:`offset`'s
        checks.  Else None."""
        if len(forms) != len(self._dims):
            return None
        a, k = [0] * len(box[0]), 0
        for (*row, c), (lo, n, stride) in zip(forms, self._dims):
            low, high = affine_range(row, c, box)
            if low < lo or high >= lo + n:
                return None
            a = [x + y * stride for x, y in zip(a, row)]
            k += (c - lo) * stride
        return a, k

    def __getitem__(self, coords: Coords) -> float:
        return self.values[self.offset(tuple(coords))]

    def __setitem__(self, coords: Coords, value: float) -> None:
        self.values[self.offset(tuple(coords))] = float(value)

    def __contains__(self, coords: Coords) -> bool:
        try:
            self.offset(tuple(coords))
            return True
        except IndexError:
            return False

    def coords_iter(self) -> Iterable[Coords]:
        ranges = [range(l, h + 1) for l, h in zip(self.lo, self.hi)]
        return itertools.product(*ranges)

    def _box_rows(self, lo: Coords, shape: tuple[int, ...]) -> Iterator[slice]:
        """The box ``[lo, lo + shape)``, which must lie inside the array,
        as slices of :attr:`values`: its innermost rows."""
        self.offset(tuple(l + n - 1 for l, n in zip(lo, shape)))
        base, strides = self.offset(lo), [d[2] for d in self._dims]
        for idx in itertools.product(*map(range, shape[:-1])):
            start = base + sum(map(mul, idx, strides))
            yield slice(start, start + shape[-1])

    def box_values(self, lo: Coords, shape: tuple[int, ...]) -> list[float]:
        """Row-major values of the box ``[lo, lo + shape)``, always as a
        fresh list: a run's flat store is made of these and written in
        place, and the array it was cut from must not change."""
        if tuple(lo) == self.lo \
                and tuple(shape) == tuple(d[1] for d in self._dims):
            return list(self.values)
        box: list[float] = []
        for row in self._box_rows(lo, shape):
            box += self.values[row]
        return box

    def assign_box(self, lo: Coords, shape: tuple[int, ...],
                   values: list[float]) -> None:
        """Overwrite the box ``[lo, lo + shape)``, in row-major order."""
        new = map(float, values)
        for row in self._box_rows(lo, shape):
            self.values[row] = itertools.islice(new, shape[-1])

    def differences(self, other: "DataSpace") -> list[tuple]:
        """``(coords, mine, theirs)`` wherever the two arrays differ, in
        :meth:`coords_iter` order; a NaN differs from everything."""
        if (self.lo, self.hi) != (other.lo, other.hi):
            raise IndexError(f"{self!r} and {other!r} span different bounds")
        return [(c, a, b) for c, a, b
                in zip(self.coords_iter(), self.values, other.values)
                if a != b]

    def copy(self) -> "DataSpace":
        out = DataSpace.__new__(DataSpace)  # no zero fill to throw away
        out.__dict__.update(self.__dict__, values=list(self.values))
        return out

    def __eq__(self, other) -> bool:
        """Same bounds and no element that differs -- the same float
        ``!=`` as :meth:`differences` (``list.__eq__`` would call a NaN
        equal to itself when both lists hold the same object)."""
        if not isinstance(other, DataSpace):
            return NotImplemented
        return ((self.lo, self.hi) == (other.lo, other.hi)
                and not any(map(ne, self.values, other.values)))

    def __repr__(self) -> str:
        return f"DataSpace({self.name}[{self.lo}..{self.hi}])"


def affine_range(row, const: int, box: tuple) -> tuple[int, int]:
    """Min and max of ``row . x + const`` over the box ``(lo, hi)``: an
    affine form attains them at corners, one bound per coordinate."""
    low = high = const
    for a, lo, hi in zip(row, *box):
        low += min(a * lo, a * hi)
        high += max(a * lo, a * hi)
    return low, high


def array_footprints(model: ReferenceModel) -> dict[str, tuple[Coords, Coords]]:
    """Exact per-array (lo, hi) coordinate bounds over all references:
    each subscript row ``H_d i + c_d`` over the iteration space's
    bounding box (tight for rectangular spaces)."""
    box = model.space.bounding_box()
    out: dict[str, tuple[Coords, Coords]] = {}
    for name, info in model.arrays.items():
        lo, hi = [], []
        for dim in zip(*[[affine_range(row, c, box)
                          for row, c in zip(info.h_rows, ref.c)]
                         for ref in info.references]):
            lo.append(min(low for low, _ in dim))
            hi.append(max(high for _, high in dim))
        out[name] = (tuple(lo), tuple(hi))
    return out


def default_values(array: str, lo: Coords, hi: Coords) -> list[float]:
    """The deterministic, array-specific initial values of ``array`` over
    ``[lo..hi]``, row-major: a salt plus one term per dimension, added
    left to right.  Values vary across elements and arrays so that
    verification is sensitive to misplaced reads; purely
    integer-combination based to stay bit-reproducible.  Built a
    dimension at a time from each dimension's terms, with no call per
    element."""
    values = [float(sum((i + 1) * ord(ch) for i, ch in enumerate(array))
                    % 97 + 3)]
    for j, (l, h) in enumerate(zip(lo, hi)):
        terms = [(j + 2) * c * 0.25 + (c * c) * 0.0625
                 for c in range(l, h + 1)]
        values = [acc + term for acc in values for term in terms]
    return values


def make_arrays(model: ReferenceModel) -> dict[str, DataSpace]:
    """Allocate and initialize all arrays of a model.

    The initialisation (:func:`default_values`) is a pure function of
    the model, so it is made once per model and handed out as fresh
    copies -- callers run nests over the arrays in place.
    """
    return {name: ds.copy()
            for name, ds in _DEFAULT_ARRAYS.get(model).items()}


def _default_arrays(model: ReferenceModel) -> dict[str, DataSpace]:
    out: dict[str, DataSpace] = {}
    for name, (lo, hi) in array_footprints(model).items():
        out[name] = DataSpace(name, lo, hi)
        out[name].values = default_values(name, lo, hi)
    return out


#: model -> its default arrays
_DEFAULT_ARRAYS = Sidecar(_default_arrays)
