"""The algebraic certificate: zero cross-block access from ``(H, c, bounds, Q)``.

Two references ``A[H i + c1]`` and ``A[H i' + c2]`` meet on one element
iff ``H t = c1 - c2`` for ``t = i' - i`` (Definition 1), and the two
iterations sit in different blocks iff ``Q t != 0`` -- ``Q`` being the
integer basis of ``Ker(Psi)`` the blocks are keyed by (Definition 2).
So a partition is communication-free iff, for every pair of offsets of
every array, no integer solution ``t`` of ``H t = r`` with ``Q t != 0``
is a difference of two iterations.  Per pair, in order:

1. the *rational* solution set ``t0 + Ker(H)`` lies inside ``Psi``
   (``Q t0 = 0`` and ``Q k = 0`` for every kernel vector), or is empty:
   the pair is free -- this is what Theorems 1-4 promise, and what every
   rule-built plan hits;
2. otherwise Smith normal form gives the *integer* solutions ``t0 + L``
   (none: free), and ``L`` is searched inside the difference box for a
   ``t`` with ``Q t != 0`` that two iterations realise: found, the plan
   is refuted with that witness; exhausted, the pair is free; past
   ``BUDGET`` candidates, undecided.

A replicated array (duplicate-data strategy) keeps a copy per block, so
only a value flowing *into* a read constrains it: write -> read pairs
with ``t`` lexicographically positive.  A same-block write that would
kill such a flow is not modelled, so a replicated refutation is
conservative.  The cost is O(offset pairs) linear algebra on
``depth``-sized matrices; nothing here enumerates iterations except to
anchor the witness of a plan that is already refuted.

This is the reference the planner is checked against, so it shares no
code with the construction of ``Psi`` (``core/refspace.py``,
``analysis/drv.py``, ``analysis/dependence.py``) -- only ``ratlinalg``.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations_with_replacement, islice, product
from typing import Iterable, Optional, Sequence

from repro.ratlinalg.lattice import IntLattice
from repro.ratlinalg.matrix import RatMat, RatVec
from repro.ratlinalg.rref import nullspace
from repro.ratlinalg.smith import solve_diophantine
from repro.ratlinalg.solve import solve_particular

Coords = tuple[int, ...]

#: lattice candidates one pair may cost before the checker gives up
BUDGET = 1 << 14


@dataclass(frozen=True)
class ArrayRefs:
    """What the checker needs of one array: ``H``, the distinct offsets
    written and read, and whether each block holds its own copy."""

    name: str
    h: RatMat
    writes: tuple[Coords, ...]
    reads: tuple[Coords, ...]
    replicated: bool

    def pairs(self) -> Iterable[tuple[Coords, Coords]]:
        if self.replicated:
            return product(self.writes, self.reads)
        return combinations_with_replacement(
            tuple(dict.fromkeys(self.writes + self.reads)), 2)


@dataclass(frozen=True)
class Witness:
    """``c1`` at iteration ``i`` and ``c2`` at ``i + t`` touch one element
    from two blocks: ``H t = r = c1 - c2`` and ``t`` is not in ``Psi``."""

    array: str
    c1: Coords
    c2: Coords
    r: Coords
    t: Coords
    i: Coords


@dataclass(frozen=True)
class Certificate:
    """*proved free* (``free``), *refuted* (``witness``) or *undecided*
    (neither; ``reason`` says why), over ``pairs`` reference pairs."""

    free: bool
    pairs: int = 0
    witness: Optional[Witness] = None
    reason: str = ""

    @property
    def decided(self) -> bool:
        return self.free or self.witness is not None

    def to_dict(self) -> dict:
        return {"decided_by": "symbolic" if self.decided else "replay",
                "pairs": self.pairs, "reason": self.reason}

    def line(self) -> str:
        if self.decided:
            return f"symbolic ({self.pairs} reference pairs)"
        return f"replay ({self.reason})"


def _escapes(q: Sequence[Coords], t) -> bool:
    return any(sum(a * b for a, b in zip(row, t)) != 0 for row in q)


def _anchor(space, t: Coords) -> Optional[Coords]:
    """Some ``i`` with ``i`` and ``i + t`` both iterations."""
    for i in space.iterate():
        if tuple(a + b for a, b in zip(i, t)) in space:
            return i
    return None


class _OverBudget(Exception):
    """One pair's lattice search was cut short."""


def _escaping_solution(h: RatMat, kernel_inside: bool, r: RatVec, space, q,
                       flow: bool) -> Optional[Coords]:
    """An integer ``t`` with ``H t = r``, ``Q t != 0`` realised by two
    iterations (``t`` lexicographically positive for a ``flow`` pair),
    or ``None`` when there is none.  ``kernel_inside``: ``Ker(H)`` lies
    in ``Psi``, so one rational solution speaks for all of them."""
    t0 = solve_particular(h, r) if any(r) else r
    if t0 is None or (kernel_inside and not _escapes(q, t0)):
        return None
    integer = solve_diophantine(h, r)
    if integer is None:
        return None
    lo, hi = space.difference_box()
    lattice = IntLattice(list(integer.lattice_basis), integer.particular)
    seen = 0
    for seen, t in enumerate(islice(lattice.points_in_box(lo, hi), BUDGET), 1):
        if (_escapes(q, t) and (not flow or t.lex_sign() > 0)
                and space.pair_exists(t)):
            return t.to_ints()
    if seen == BUDGET:
        raise _OverBudget
    return None


def check(arrays: Iterable[ArrayRefs], space, q: Sequence[Coords]) -> Certificate:
    """Decide zero cross-block access for blocks keyed by ``Q i``."""
    if not q:                      # Psi is the whole space: one block
        return Certificate(free=True)
    pairs, undecided = 0, ""
    for a in arrays:
        kernel_inside = not any(_escapes(q, k) for k in nullspace(a.h))
        for c1, c2 in a.pairs():
            pairs += 1
            r = tuple(x - y for x, y in zip(c1, c2))
            try:
                t = _escaping_solution(a.h, kernel_inside, RatVec(r), space,
                                       q, a.replicated)
            except _OverBudget:
                undecided = f"search budget on {a.name}"
                continue
            if t is not None:
                return Certificate(False, pairs, Witness(
                    a.name, c1, c2, r, t, _anchor(space, t)))
    return Certificate(not undecided, pairs, reason=undecided)


def certify_plan(plan, registry=None) -> Certificate:
    """The certificate of a plan, traced and counted (in ``registry``, or
    the current one).

    An ``eliminate_redundant`` plan is undecided by construction: which
    computations run is a mask defined by enumeration, not by ``(H, c)``.
    """
    from repro.obs.metrics import current_registry
    from repro.obs.trace import current_tracer

    def offsets(info, written: bool) -> tuple[Coords, ...]:
        return tuple(dict.fromkeys(
            r.c for r in info.references if r.is_write == written))

    with current_tracer().span("audit.certificate", category="audit") as sp:
        if plan.live is not None:
            cert = Certificate(False, reason="live mask")
        else:
            replicated = plan.breakdown.duplicated_arrays
            cert = check(
                [ArrayRefs(name, info.h, offsets(info, True),
                           offsets(info, False), name in replicated)
                 for name, info in plan.model.arrays.items()],
                plan.model.space, plan.psi.kernel_rows())
        sp.set(**cert.to_dict())
    reg = registry if registry is not None else current_registry()
    reg.inc("audit.certificate.symbolic" if cert.decided
            else "audit.certificate.fallback")
    return cert
