"""Optional-numpy shim for the runtime.

The functional runtime only *prefers* numpy: :class:`~repro.runtime.arrays.DataSpace`
uses an ``ndarray`` when one is available and falls back to :class:`PyGrid`
(a flat-list dense grid with the same tuple-indexing surface) otherwise, so
every backend except ``vectorized`` works on a numpy-free interpreter.

Set ``REPRO_NO_NUMPY=1`` to force the fallback even when numpy is
installed -- CI uses this (plus a real uninstall) to keep the numpy-absent
code paths exercised.  All helpers re-check :data:`np` at call time so
tests can monkeypatch ``numpy_compat.np = None`` and back.

The shared-memory block store is numpy-only (it is built on flat
ndarray views over ``multiprocessing.shared_memory`` segments), so on
the PyGrid fallback the multiprocess engine ships leases by value --
same results, just with pickled payloads instead of descriptors.
"""

from __future__ import annotations

from typing import Optional

from repro import config


def _load_numpy():
    if config.get("REPRO_NO_NUMPY"):
        return None
    try:
        import numpy
    except ImportError:  # pragma: no cover - exercised in the no-numpy CI job
        return None
    return numpy


#: The numpy module, or ``None`` when missing/disabled.  Mutable on purpose.
np = _load_numpy()


def have_numpy() -> bool:
    return np is not None


def c_strides(shape: tuple[int, ...]) -> tuple[int, ...]:
    """Row-major strides, in elements, of a dense grid of ``shape``."""
    strides = [1] * len(shape)
    for d in range(len(shape) - 2, -1, -1):
        strides[d] = strides[d + 1] * shape[d + 1]
    return tuple(strides)


class PyGrid:
    """Dense float grid over ``shape`` backed by a flat Python list.

    Implements the small slice of the ``ndarray`` surface that
    :class:`~repro.runtime.arrays.DataSpace` and the compiled kernels
    use: tuple ``__getitem__``/``__setitem__`` (no slicing), ``shape``,
    ``copy`` and iteration-free bulk comparison helpers below.  Values
    are stored as Python floats, which carry the exact same IEEE-754
    doubles as ``float64`` -- results stay bit-identical to the numpy
    backing.
    """

    __slots__ = ("shape", "_strides", "_data")

    def __init__(self, shape: tuple[int, ...], fill: float = 0.0,
                 _data: Optional[list] = None):
        self.shape = tuple(int(s) for s in shape)
        self._strides = c_strides(self.shape)
        size = 1
        for s in self.shape:
            size *= s
        self._data = list(_data) if _data is not None else [float(fill)] * size

    def _flat(self, pos) -> int:
        if not isinstance(pos, tuple):
            pos = (pos,)
        if len(pos) != len(self.shape):
            raise IndexError(f"rank mismatch: {pos} into shape {self.shape}")
        out = 0
        for p, s, n in zip(pos, self._strides, self.shape):
            p = int(p)
            if not 0 <= p < n:
                raise IndexError(f"index {pos} outside shape {self.shape}")
            out += p * s
        return out

    def __getitem__(self, pos) -> float:
        return self._data[self._flat(pos)]

    def __setitem__(self, pos, value) -> None:
        self._data[self._flat(pos)] = float(value)

    #: the row-major values themselves, as ``ndarray.flat`` indexes them
    flat = property(lambda self: self._data)

    def copy(self) -> "PyGrid":
        return PyGrid(self.shape, _data=self._data)

    def tolist(self) -> list:
        return list(self._data)


def full(shape: tuple[int, ...], fill: float = 0.0):
    """A float64 grid of ``shape``: ``ndarray`` with numpy, :class:`PyGrid` without."""
    if np is not None:
        return np.full(shape, fill, dtype=np.float64)
    return PyGrid(shape, fill)


def flat_values(grid) -> list:
    """Row-major Python floats of either backing representation."""
    if isinstance(grid, PyGrid):
        return grid.tolist()
    return grid.ravel().tolist()


def assign_flat(grid, values: list) -> None:
    """Overwrite every slot of ``grid``, in row-major order, in one step."""
    if isinstance(grid, PyGrid):
        grid._data[:] = map(float, values)
    else:
        grid.flat[:] = values


def array_equal(a, b) -> bool:
    """Exact elementwise equality across either backing representation."""
    if np is not None and not isinstance(a, PyGrid) and not isinstance(b, PyGrid):
        return bool(np.array_equal(a, b))
    if tuple(a.shape) != tuple(b.shape):
        return False
    return flat_values(a) == flat_values(b)


def allclose(a, b, rtol: float = 1e-05, atol: float = 1e-08) -> bool:
    """``numpy.allclose`` semantics for either backing representation."""
    if np is not None and not isinstance(a, PyGrid) and not isinstance(b, PyGrid):
        return bool(np.allclose(a, b, rtol=rtol, atol=atol))
    if tuple(a.shape) != tuple(b.shape):
        return False
    return all(abs(x - y) <= atol + rtol * abs(y)
               for x, y in zip(flat_values(a), flat_values(b)))
