"""Iteration spaces ``I^n`` of loop nests.

Provides exact enumeration (lexicographic order), membership tests, the
bounding box, and the *difference box* used by Definition 4 condition
(2): the set of possible ``i_2 - i_1`` vectors.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import ceil, floor, prod
from typing import Iterator, Optional, Sequence

from repro.lang.affine import AffineExpr, affine_of
from repro.lang.ast import LoopNest


class IterationSpace:
    """The set of iterations of a :class:`LoopNest`, with exact queries."""

    def __init__(self, nest: LoopNest):
        self.nest = nest
        self.depth = nest.depth
        self._lowers: list[AffineExpr] = [
            affine_of(lo, nest.indices) for lo in nest.lowers
        ]
        self._uppers: list[AffineExpr] = [
            affine_of(hi, nest.indices) for hi in nest.uppers
        ]
        self._points_cache: Optional[list[tuple[int, ...]]] = None
        self._box_cache: Optional[tuple[tuple[int, ...], tuple[int, ...]]] = None
        # rank_of support: ("rect", los, his, strides) or ("map", {point: rank})
        self._rank_cache: Optional[tuple] = None
        self._size_cache: Optional[int] = None

    def __getstate__(self) -> dict:
        """No derived cache: the bytes must not depend on what ran before."""
        return {k: v for k, v in self.__dict__.items()
                if not k.endswith("_cache")}

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state, _points_cache=None, _box_cache=None,
                             _rank_cache=None, _size_cache=None)

    # -- structural ----------------------------------------------------------
    def is_rectangular(self) -> bool:
        """True if every bound is a constant (paper examples are all rectangular)."""
        return all(lo.is_constant() and hi.is_constant()
                   for lo, hi in zip(self._lowers, self._uppers))

    def bounds_at(self, prefix: Sequence[int], k: int) -> tuple[int, int]:
        """(lower, upper) of loop ``k`` for the given values of indices[:k]."""
        env = dict(zip(self.nest.indices[:k], prefix))
        return ceil(self._lowers[k].eval(env)), floor(self._uppers[k].eval(env))

    # -- enumeration -----------------------------------------------------------
    def iterate(self) -> Iterator[tuple[int, ...]]:
        """All iterations in lexicographic (sequential-execution) order; a
        rectangular space's (depth 0 too: one ``()``) as a range product."""
        if self.is_rectangular():
            lo, hi = self.bounding_box()
            return product(*[range(l, h + 1) for l, h in zip(lo, hi)])
        last = self.depth - 1

        def rec(prefix: tuple[int, ...], k: int) -> Iterator[tuple[int, ...]]:
            lo, hi = self.bounds_at(prefix, k)
            if k == last:  # points come straight off the innermost range
                for v in range(lo, hi + 1):
                    yield prefix + (v,)
            else:
                for v in range(lo, hi + 1):
                    yield from rec(prefix + (v,), k + 1)

        return rec((), 0)

    def points(self) -> list[tuple[int, ...]]:
        """Materialized iteration list (cached)."""
        if self._points_cache is None:
            self._points_cache = list(self.iterate())
        return self._points_cache

    def _rank_table(self) -> tuple:
        """``("rect", los, his, strides)`` or ``("map", {point: rank})``,
        derived once."""
        if self._rank_cache is None:
            if self.is_rectangular():
                los, his = self.bounding_box()   # the bounds themselves
                stride = 1
                strides = [0] * self.depth
                for k in range(self.depth - 1, -1, -1):
                    strides[k] = stride
                    stride *= max(0, his[k] - los[k] + 1)
                self._rank_cache = ("rect", los, his, tuple(strides))
            else:
                self._rank_cache = (
                    "map", {p: r for r, p in enumerate(self.points())})
        return self._rank_cache

    def rank_of(self, point) -> int:
        """Lexicographic rank of ``point`` within the space.

        ``rank_of(p) == space.points().index(p)``, but O(1): rectangular
        spaces use a closed-form stride formula (derived once from the
        loop bounds), non-rectangular ones a lookup table built from the
        cached enumeration.  Raises :class:`ValueError` for points
        outside the space, so callers can use it as a membership check.
        """
        pt = tuple(int(x) for x in point)
        kind, *table = self._rank_table()
        if kind == "rect":
            los, his, strides = table
            if len(pt) != self.depth:
                raise ValueError(f"rank_of: {pt} has wrong depth")
            rank = 0
            for v, lo, hi, s in zip(pt, los, his, strides):
                if not lo <= v <= hi:
                    raise ValueError(f"rank_of: {pt} outside the space")
                rank += (v - lo) * s
            return rank
        try:
            return table[0][pt]
        except KeyError:
            raise ValueError(f"rank_of: {pt} outside the space") from None

    def rank_strides(self) -> Optional[tuple[tuple[int, ...], tuple[int, ...]]]:
        """``(los, strides)`` of the closed-form rank, or ``None`` if the
        space is not rectangular.  Used by the codegen kernels to
        inline write-stamp computation.  An empty space has
        them too: they come from the bounds, no point is ranked."""
        kind, *table = self._rank_table()
        if kind != "rect":
            return None
        los, _his, strides = table
        return los, strides

    def size(self) -> int:
        if self._size_cache is None:
            if self.is_rectangular():
                lo, hi = self.bounding_box()
                self._size_cache = prod(max(0, h - l + 1)
                                        for l, h in zip(lo, hi))
            else:
                self._size_cache = len(self.points())
        return self._size_cache

    def __contains__(self, point) -> bool:
        pt = tuple(int(x) for x in point)
        if len(pt) != self.depth:
            return False
        if any(isinstance(x, Fraction) and x.denominator != 1 for x in point):
            return False
        for k in range(self.depth):
            lo, hi = self.bounds_at(pt[:k], k)
            if not lo <= pt[k] <= hi:
                return False
        return True

    # -- boxes ------------------------------------------------------------------
    def bounding_box(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Componentwise (min, max) over all iterations.

        Computed by interval arithmetic over the affine bounds (exact for
        rectangular spaces; a tight cover for affine-bounded ones, falling
        back to an exact scan when the interval recursion cannot bound a
        level).
        """
        if self._box_cache is not None:
            return self._box_cache
        if self.is_rectangular():
            lo = tuple(self.bounds_at((), k)[0] for k in range(self.depth))
            hi = tuple(self.bounds_at((), k)[1] for k in range(self.depth))
        else:
            pts = self.points()
            if not pts:
                lo = tuple(0 for _ in range(self.depth))
                hi = tuple(-1 for _ in range(self.depth))
            else:
                lo = tuple(min(p[k] for p in pts) for k in range(self.depth))
                hi = tuple(max(p[k] for p in pts) for k in range(self.depth))
        self._box_cache = (lo, hi)
        return self._box_cache

    def difference_box(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """A box containing every possible ``i_2 - i_1`` difference.

        Exact (equals the true difference set's bounding box) for
        rectangular spaces.
        """
        lo, hi = self.bounding_box()
        return (tuple(l - h for l, h in zip(lo, hi)),
                tuple(h - l for l, h in zip(lo, hi)))

    # -- Definition 4 condition (2) helper ------------------------------------------
    def pair_exists(self, t: Sequence) -> bool:
        """True iff ``t = i_2 - i_1`` for some iterations ``i_1, i_2`` in the space."""
        tv = tuple(map(int, t))
        if tv != tuple(t) or len(tv) != self.depth:
            return False
        if self.is_rectangular():
            lo, hi = self.bounding_box()
            return all(abs(tv[k]) <= hi[k] - lo[k] for k in range(self.depth))
        for p in self.points():
            shifted = tuple(p[k] + tv[k] for k in range(self.depth))
            if shifted in self:
                return True
        return False
