"""The independent oracle: what every op of the ledger must produce.

Hand-written plain-Python loops for every corpus nest, and hand-derived
block / iteration counts for ops whose arrays never leave the program
(CLI and wire responses).  Nothing here imports ``repro``: the initial
array contents are handed in by the harness (it takes them from
``make_arrays`` so both sides start from the same data), and everything
after that -- loop order, subscripts, arithmetic -- is restated here
from the corpus text by hand.  The arithmetic is the same IEEE double
operations in the same order as the sequential semantics of the
mini-language, so results must match bit for bit.

Block counts come from the paper's theorems applied by hand: each entry
of :data:`_BLOCK_KEY` is a function that is constant exactly on the
cosets of the nest's partitioning space ``Psi``; the number of blocks is
the number of distinct keys over the iteration space.
"""

from __future__ import annotations

from itertools import product
from math import gcd

import numpy as np


class Grid:
    """An array with per-dimension origin offsets (``lo``)."""

    def __init__(self, lo, data) -> None:
        self.lo = tuple(int(x) for x in lo)
        self.data = np.array(data, dtype=np.float64)   # private copy

    def _pos(self, idx):
        return tuple(i - l for i, l in zip(idx, self.lo))

    def __getitem__(self, idx):
        return self.data[self._pos(idx)]

    def __setitem__(self, idx, value) -> None:
        self.data[self._pos(idx)] = value


def _r(n: int):
    return range(1, n + 1)


# ---------------------------------------------------------------------------
# the kernels, one per corpus kind, in sequential (lexicographic) order
# ---------------------------------------------------------------------------

def _k_matmul(g, p):
    A, B, C = g["A"], g["B"], g["C"]
    for i, j, k in product(_r(p["n"]), repeat=3):
        C[i, j] = C[i, j] + A[i, k] * B[k, j]


def _k_l1(g, p):
    A, B, C = g["A"], g["B"], g["C"]
    for i, j in product(_r(p["n"]), repeat=2):
        A[2 * i, j] = C[i, j] * 7
        B[j, i + 1] = A[2 * i - 2, j - 1] + C[i - 1, j - 1]


def _k_l2(g, p):
    A, B = g["A"], g["B"]
    for i, j in product(_r(p["n"]), repeat=2):
        A[i + j, i + j] = B[2 * i, j] * A[i + j - 1, i + j]
        A[i + j - 1, i + j - 1] = B[2 * i - 1, j - 1] / 3


def _k_l3(g, p):
    A = g["A"]
    for i, j in product(_r(p["n"]), repeat=2):
        A[i, j] = A[i - 1, j - 1] * 3
        A[i, j - 1] = A[i + 1, j - 2] / 7


def _k_l4(g, p):
    A, B = g["A"], g["B"]
    for i1, i2, i3 in product(_r(p["n"]), repeat=3):
        A[i1, i2, i3] = A[i1 - 1, i2 + 1, i3 - 1] + B[i1, i2, i3]


def _k_stencil2d(g, p):
    U, F = g["U"], g["F"]
    for i, j in product(_r(p["n"]), repeat=2):
        U[i, j] = U[i - 1, j - 1] + F[i, j]


def _k_conv(g, p):
    Y, X, H = g["Y"], g["X"], g["H"]
    for i in _r(p["n"]):
        for k in _r(p["w"]):
            Y[i,] = Y[i,] + X[i + k,] * H[k,]


def _k_matvec(g, p):
    Y, A, X = g["Y"], g["A"], g["X"]
    for i, j in product(_r(p["n"]), repeat=2):
        Y[i,] = Y[i,] + A[i, j] * X[j,]


def _k_tri(g, p):
    T, V = g["T"], g["V"]
    for i in _r(p["n"]):
        for j in _r(i):
            T[i, j] = T[i - 1, j] + V[i, j]


def _k_dft(g, p):
    XOUT, W, XIN = g["XOUT"], g["W"], g["XIN"]
    for i, k in product(_r(p["n"]), repeat=2):
        XOUT[i,] = XOUT[i,] + W[i, k] * XIN[k,]


def _at(H, c, i, j):
    return (H[0][0] * i + H[0][1] * j + c[0],
            H[1][0] * i + H[1][1] * j + c[1])


def _k_novel(g, p):
    A, B = g["A"], g["B"]
    for i, j in product(_r(p["n"]), repeat=2):
        A[_at(p["H"], p["c"], i, j)] = (
            A[_at(p["H"], p["cr"], i, j)] * p["k"]
            + B[_at(p["HB"], p["cb"], i, j)])


_KERNELS = {
    "matmul": _k_matmul, "l1": _k_l1, "l2": _k_l2, "l3": _k_l3,
    "l4": _k_l4, "stencil2d": _k_stencil2d, "conv": _k_conv,
    "matvec": _k_matvec, "tri": _k_tri, "dft": _k_dft, "novel": _k_novel,
}


def expected_arrays(params: dict, initial: dict) -> dict:
    """Final contents of every array after the nest ran sequentially.

    ``initial`` maps array name -> ``(lo, ndarray)``; returns the same
    shape with private result arrays.
    """
    grids = {name: Grid(lo, data) for name, (lo, data) in initial.items()}
    _KERNELS[params["kind"]](grids, params)
    return {name: g.data for name, g in grids.items()}


def arrays_match(expected: dict, got: dict) -> bool:
    """Bit-for-bit equality of every array (``got``: name -> ndarray)."""
    return (expected.keys() == got.keys()
            and all(np.array_equal(expected[n], np.asarray(got[n]))
                    for n in expected))


# ---------------------------------------------------------------------------
# known counts
# ---------------------------------------------------------------------------

def _space(params: dict) -> list[tuple[int, ...]]:
    kind, n = params["kind"], params["n"]
    if kind in ("matmul", "l4"):
        return list(product(_r(n), repeat=3))
    if kind == "conv":
        return list(product(_r(n), _r(params["w"])))
    if kind == "tri":
        return [(i, j) for i in _r(n) for j in _r(i)]
    return list(product(_r(n), repeat=2))


def iterations(params: dict) -> int:
    return len(_space(params))


def _novel_key(params):
    a, b = params["t"]
    g = gcd(abs(a), abs(b))
    if g == 0:
        return lambda it: it                 # Psi = {0}: one block a point
    a, b = a // g, b // g
    return lambda it: b * it[0] - a * it[1]  # constant along t


#: (kind, strategy) -> key constant exactly on the cosets of Psi.
_BLOCK_KEY = {
    # C[i,j] carries a flow dependence along k only (Theorem 2) ...
    ("matmul", "duplicate"): lambda p: lambda it: it[:2],
    # ... but without duplication A[i,k] ties all j and B[k,j] all i
    ("matmul", "nonduplicate"): lambda p: lambda it: 0,
    # Psi = span{(1,1)} (paper Example 1)
    ("l1", "nonduplicate"): lambda p: lambda it: it[0] - it[1],
    # A's reads are never of written elements, B is read-only: Psi = {0}
    ("l2", "duplicate"): lambda p: lambda it: it,
    # (1,1) and (1,-1) both in Psi: the whole plane (paper Example 3)
    ("l3", "nonduplicate"): lambda p: lambda it: 0,
    # Psi = span{(1,-1,1)} (paper Example 4)
    ("l4", "nonduplicate"): lambda p: lambda it: (it[0] + it[1],
                                                  it[1] + it[2]),
    ("stencil2d", "nonduplicate"): lambda p: lambda it: it[0] - it[1],
    # accumulations into a rank-1 array: Psi = the inner-loop axis
    ("conv", "duplicate"): lambda p: lambda it: it[0],
    ("matvec", "duplicate"): lambda p: lambda it: it[0],
    ("dft", "duplicate"): lambda p: lambda it: it[0],
    # T[i,j] <- T[i-1,j]: Psi = span{(1,0)}
    ("tri", "nonduplicate"): lambda p: lambda it: it[1],
    ("novel", "nonduplicate"): _novel_key,
}


def blocks(params: dict, strategy: str) -> int:
    key = _BLOCK_KEY[(params["kind"], strategy)](params)
    return len({key(it) for it in _space(params)})


#: (kind, strategy) -> dim(Psi), read off the comments above.
_PSI_DIM = {
    ("matmul", "duplicate"): 1, ("matmul", "nonduplicate"): 3,
    ("l1", "nonduplicate"): 1, ("l2", "duplicate"): 0,
    ("l3", "nonduplicate"): 2, ("l4", "nonduplicate"): 1,
    ("stencil2d", "nonduplicate"): 1, ("conv", "duplicate"): 1,
    ("matvec", "duplicate"): 1, ("dft", "duplicate"): 1,
    ("tri", "nonduplicate"): 1,
}


def psi_dim(params: dict, strategy: str) -> int:
    if params["kind"] == "novel":
        return 0 if tuple(params["t"]) == (0, 0) else 1
    return _PSI_DIM[(params["kind"], strategy)]


def accesses(params: dict) -> int:
    """Array words touched by one sequential run (reads + writes): the
    data the kernel must move at least once (cf. arxiv 1308.0068)."""
    refs = {"matmul": 4, "l1": 5, "l2": 5, "l3": 4, "l4": 3,
            "stencil2d": 3, "conv": 4, "matvec": 4, "tri": 3, "dft": 4,
            "novel": 3}[params["kind"]]
    return refs * iterations(params)
