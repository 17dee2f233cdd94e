"""Iteration spaces ``I^n`` of loop nests.

Provides exact enumeration (lexicographic order), membership tests, the
bounding box, and the *difference box* used by Definition 4 condition
(2): the set of possible ``i_2 - i_1`` vectors.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import ceil, floor, prod
from operator import mul, sub
from typing import Callable, Iterator, Optional, Sequence

from repro._lazy import Sidecar
from repro.lang.ast import LoopNest


class IterationSpace:
    """The set of iterations of a :class:`LoopNest`, with exact queries."""

    def __init__(self, nest: LoopNest):
        self.nest = nest
        self.depth = nest.depth

    # -- structural ----------------------------------------------------------
    def is_rectangular(self) -> bool:
        """True if every bound is a constant (paper examples are all rectangular)."""
        return all(lo.is_constant() and hi.is_constant()
                   for lo, hi in self.nest.bound_forms)

    def bounds_at(self, prefix: Sequence[int], k: int) -> tuple[int, int]:
        """(lower, upper) of loop ``k`` for the given values of indices[:k]."""
        env = dict(zip(self.nest.indices[:k], prefix))
        lo, hi = self.nest.bound_forms[k]
        return ceil(lo.eval(env)), floor(hi.eval(env))

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
        return _POINTS.get(self)

    def ranker(self) -> Callable[[tuple], int]:
        """The lexicographic rank of a point of the space, as one callable
        whose table is taken once, for a caller that ranks point after
        point: ``ranker()(p) == space.points().index(p)``, in O(1).  A
        rectangular space's is the closed-form stride formula (derived
        from the bounds), a non-rectangular one's a lookup in a table
        built from the cached enumeration (a point outside the space is
        a ``KeyError``)."""
        table = _RANKS.get(self)
        if isinstance(table, dict):
            return table.__getitem__
        los = self.bounding_box()[0]
        return lambda point: sum(map(mul, map(sub, point, los), table))

    def rank_strides(self) -> Optional[tuple[tuple[int, ...], tuple[int, ...]]]:
        """``(los, strides)`` of the closed-form rank, or ``None`` if the
        space is not rectangular.  Used by the codegen kernels to
        inline write-stamp computation.  An empty space has
        them too: they come from the bounds, no point is ranked."""
        table = _RANKS.get(self)
        return None if isinstance(table, dict) else (
            self.bounding_box()[0], table)

    def size(self) -> int:
        return _SIZES.get(self)

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
        return _BOXES.get(self)

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


# -- what is derived from a space, once, beside it --------------------------

def _box(space: IterationSpace) -> tuple[tuple[int, ...], tuple[int, ...]]:
    if space.is_rectangular():
        bounds = [space.bounds_at((), k) for k in range(space.depth)]
        return tuple(b[0] for b in bounds), tuple(b[1] for b in bounds)
    pts = space.points()
    if not pts:
        return (0,) * space.depth, (-1,) * space.depth
    return tuple(map(min, zip(*pts))), tuple(map(max, zip(*pts)))


def _ranks(space: IterationSpace):
    """A non-rectangular space's ``{point: rank}``; a rectangular one's
    row-major strides over its box, which is the bounds themselves."""
    if not space.is_rectangular():
        return {p: r for r, p in enumerate(space.points())}
    strides, stride = [], 1
    for lo, hi in zip(*map(reversed, space.bounding_box())):
        strides.insert(0, stride)
        stride *= max(0, hi - lo + 1)
    return tuple(strides)


def _size(space: IterationSpace) -> int:
    if not space.is_rectangular():
        return len(space.points())
    lo, hi = space.bounding_box()
    return prod(max(0, h - l + 1) for l, h in zip(lo, hi))


_POINTS = Sidecar(lambda space: list(space.iterate()))
_BOXES = Sidecar(_box)
_RANKS = Sidecar(_ranks)
_SIZES = Sidecar(_size)
