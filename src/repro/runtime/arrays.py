"""Array storage: one flat list per array.

In the paper a data space is an index set addressed by ``H i + c``;
:class:`DataSpace` is that and nothing more -- ``values``, the
row-major Python floats of ``[lo_1:hi_1, ..., lo_d:hi_d]``, with
per-dimension origins so the paper's arbitrary subscript ranges (e.g.
array A of L1 spanning ``[0:8, 0:4]``) map directly.  It is the same
representation as a run's flat store (:mod:`repro.runtime.layout`),
which is filled by slicing it, and what the golden model
(:mod:`repro.runtime.seq`) runs on in place; nothing here imports
numpy.  Footprints are computed exactly: a reference ``H i + c`` is
affine, so its componentwise extrema over the iteration space's
bounding box occur at box corners.
"""

from __future__ import annotations

import itertools
import math
from operator import mul, ne
from typing import Callable, Iterable, Iterator, Optional

from repro.analysis.references import ReferenceModel
from repro.ratlinalg.matrix import RatVec
from repro.runtime.layout import Sidecar, c_strides

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
    def rank(self) -> int:
        return len(self.lo)

    @property
    def data(self) -> list:
        """The values as nested row lists in the array's shape (a
        copy): the form ``numpy.array`` and ``json.dumps`` take."""
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

    def fill_with(self, fn: Callable[[Coords], float]) -> "DataSpace":
        self.values = [float(fn(c)) for c in self.coords_iter()]
        return self

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
        out = DataSpace(self.name, self.lo, self.hi)
        out.values = list(self.values)
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


def array_footprints(model: ReferenceModel) -> dict[str, tuple[Coords, Coords]]:
    """Exact per-array (lo, hi) coordinate bounds over all references.

    Evaluates every reference at every corner of the iteration bounding
    box; affine maps attain componentwise extrema at corners, so this
    covers every accessed element (and is tight for rectangular spaces).
    """
    lo_box, hi_box = model.space.bounding_box()
    corners = list(itertools.product(*[(l, h) for l, h in zip(lo_box, hi_box)]))
    out: dict[str, tuple[Coords, Coords]] = {}
    for name, info in model.arrays.items():
        lo: Optional[list[int]] = None
        hi: Optional[list[int]] = None
        for ref in info.references:
            for corner in corners:
                e = info.element_at(corner, ref.c)
                if lo is None:
                    lo, hi = list(e), list(e)
                else:
                    lo = [min(a, b) for a, b in zip(lo, e)]
                    hi = [max(a, b) for a, b in zip(hi, e)]
        assert lo is not None and hi is not None
        out[name] = (tuple(lo), tuple(hi))
    return out


def default_init(array: str) -> Callable[[Coords], float]:
    """A deterministic, array-specific initializer.

    Values vary across elements and arrays so that verification is
    sensitive to misplaced reads; purely integer-combination based to
    stay bit-reproducible.
    """
    salt = sum((i + 1) * ord(ch) for i, ch in enumerate(array)) % 97 + 3

    def fn(coords: Coords) -> float:
        acc = float(salt)
        for j, c in enumerate(coords):
            acc += (j + 2) * c * 0.25 + (c * c) * 0.0625
        return acc

    return fn


def make_arrays(model: ReferenceModel,
                init: Optional[Callable[[str], Callable[[Coords], float]]] = None,
                ) -> dict[str, DataSpace]:
    """Allocate and initialize all arrays of a model.

    The default initialisation is a pure function of the model (one
    Python call per element, before every run and every verify), so it
    is made once per model and handed out as fresh copies -- callers
    run nests over the arrays in place.  A caller's ``init`` is called
    every time.
    """
    if init is None:
        return {name: ds.copy()
                for name, ds in _DEFAULT_ARRAYS.get(model).items()}
    return {name: DataSpace(name, lo, hi).fill_with(init(name))
            for name, (lo, hi) in array_footprints(model).items()}


#: model -> its default arrays
_DEFAULT_ARRAYS = Sidecar(lambda model: make_arrays(model, default_init))
