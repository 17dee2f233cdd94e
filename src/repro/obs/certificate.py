"""The algebraic certificate: zero cross-block access from ``(H, c, bounds, Q)``.

Two references ``A[H i + c1]`` and ``A[H i' + c2]`` meet on one element
iff ``H t = c1 - c2`` for ``t = i' - i`` (Definition 1), and the two
iterations sit in different blocks iff ``Q t != 0`` -- ``Q`` being the
integer basis of ``Ker(Psi)`` the blocks are keyed by (Definition 2).
So a partition is communication-free iff, for every pair of offsets of
every array, no integer solution ``t`` of ``H t = r`` with ``Q t != 0``
is a difference of two iterations.  Per pair, in order:

1. Smith normal form gives one integer solution ``t0``, or none: the
   pair is free.  If ``Ker(H)`` lies inside ``Psi`` and ``Q t0 = 0``,
   every integer solution ``t0 + k`` lies in ``Psi`` too: free -- this
   is what Theorems 1-4 promise, and what every rule-built plan hits;
2. otherwise the integer solutions inside the difference box are
   searched for a ``t`` with ``Q t != 0`` that two iterations realise:
   found, the plan is refuted with that witness; exhausted, the pair is
   free; more than ``BUDGET`` candidates, undecided.

A replicated array (duplicate-data strategy) keeps a copy per block, so
only a value flowing *into* a read constrains it: write -> read pairs
with ``t`` lexicographically positive.  A same-block write that would
kill such a flow is not modelled, so a replicated refutation is
conservative.  The cost is O(offset pairs) linear algebra on
``depth``-sized matrices; nothing here enumerates iterations except to
anchor the witness of a plan that is already refuted.

This is the reference the planner is checked against, so it shares no
code with the construction of ``Psi`` (``core/refspace.py``,
``analysis/drv.py``, ``analysis/dependence.py``) -- only ``ratlinalg``
(``Q`` and each array's Smith form, ``ArrayInfo.smith``, once per plan).

:func:`static_verdict`, the one verdict for the audit and codegen's check
elision, is this certificate plus the allocation check
(:func:`allocation_misses`, Definition 3 by one walk of column
arithmetic that counts and locates the misses), alone where the
certificate is undecided.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import (
    chain, combinations_with_replacement, compress, islice, product)
from operator import not_
from typing import TYPE_CHECKING, Iterable, Optional, Sequence

from repro._lazy import Sidecar
from repro.core.partition import affine_images
from repro.obs.metrics import MetricsRegistry, current_registry
from repro.obs.trace import current_tracer
from repro.ratlinalg.smith import SmithForm

if TYPE_CHECKING:
    from repro.core.plan import PartitionPlan

Coords = tuple[int, ...]

#: lattice candidates one pair may cost before the checker gives up
BUDGET = 1 << 14
#: misses of a refused allocation located (and attributed by the audit)
MAX_DETAIL = 8


@dataclass(frozen=True)
class ArrayRefs:
    """What the checker needs of one array: the Smith form of ``H``, the
    distinct offsets written and read, and whether each block holds its
    own copy."""

    name: str
    smith: SmithForm
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
        # undecided: the audit's allocation check alone decides
        return {"decided_by": "symbolic" if self.decided else "allocation",
                "pairs": self.pairs, "reason": self.reason}

    def line(self) -> str:
        if self.decided:
            return f"symbolic ({self.pairs} reference pairs)"
        return f"allocation ({self.reason})"


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


def _escaping_solution(smith: SmithForm, kernel_inside: bool, r: Coords,
                       space, q, flow: bool) -> Optional[Coords]:
    """An integer ``t`` with ``H t = r``, ``Q t != 0`` realised by two
    iterations (``t`` lexicographically positive for a ``flow`` pair),
    or ``None`` when there is none.  ``kernel_inside``: ``Ker(H)`` lies
    in ``Psi``, so one integer solution speaks for all of them."""
    t0 = smith.particular(r)
    if t0 is None or (kernel_inside and not _escapes(q, t0)):
        return None
    zero = (0,) * len(t0)
    for seen, t in enumerate(smith.solutions_in_box(
            r, *space.difference_box())):
        if seen == BUDGET:          # a candidate past the budget: cut short
            raise _OverBudget
        if (_escapes(q, t) and (not flow or t > zero)
                and space.pair_exists(t)):
            return t
    return None


def check(arrays: Iterable[ArrayRefs], space, q: Sequence[Coords]) -> Certificate:
    """Decide zero cross-block access for blocks keyed by ``Q i``."""
    if not q:                      # Psi is the whole space: one block
        return Certificate(free=True)
    pairs, undecided = 0, ""
    for a in arrays:
        smith = a.smith
        kernel_inside = not any(_escapes(q, k) for k in smith.kernel)
        for c1, c2 in a.pairs():
            pairs += 1
            r = tuple(x - y for x, y in zip(c1, c2))
            try:
                t = _escaping_solution(smith, kernel_inside, r, space, q,
                                       a.replicated)
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
    def offsets(info, written: bool) -> tuple[Coords, ...]:
        return tuple(dict.fromkeys(
            r.c for r in info.references if r.is_write == written))

    with current_tracer().span("audit.certificate", category="audit") as sp:
        if plan.live is not None:
            cert = Certificate(False, reason="live mask")
        else:
            replicated = plan.breakdown.duplicated_arrays
            cert = check(
                [ArrayRefs(name, info.smith, offsets(info, True),
                           offsets(info, False), name in replicated)
                 for name, info in plan.model.arrays.items()],
                plan.model.space, plan.psi.kernel_rows())
        sp.set(**cert.to_dict())
    reg = registry if registry is not None else current_registry()
    reg.inc("audit.certificate.symbolic" if cert.decided
            else "audit.certificate.fallback")
    return cert


# -- the verdict ---------------------------------------------------------------

def _statement_runs(plan: PartitionPlan, points: Sequence) -> dict[int, list]:
    """Statement -> the ``points`` it runs at (all of them, or its live
    ones under a live mask)."""
    live, stmts = plan.live, range(len(plan.nest.statements))
    if live is None:
        return dict.fromkeys(stmts, points)
    return {k: [it for it in points if (k, it) in live] for k in stmts}


def _imaged(plan: PartitionPlan, info, access) -> bool:
    """Is ``access`` (an image block's definition) at least the plan's
    own accesses to ``info``'s array: the same ``H``, every reference,
    and no live mask or the plan's?"""
    if access is None or access.h_rows != info.h_rows:
        return False
    if access.live is None:
        return {c for _, c in access.refs} >= {r.c for r in info.references}
    return access.live is plan.live and set(access.refs) >= {
        (r.stmt_index, r.c) for r in info.references}


def _walk(plan: PartitionPlan) -> tuple[dict[int, int], list[tuple]]:
    """Definition 3's ``B_j^A = {H i + c : i in B_j}`` against the
    allocation: block -> accesses its data blocks miss, and the first
    :data:`MAX_DETAIL` misses in execution order as ``(block, iteration,
    reference, element)``.  A planner's data block that is the image of
    ``plan.blocks[j]`` under the plan's own accesses holds it by
    definition and is not walked.  The others are, an array at a time:
    ``H i`` over their blocks' points (under a live mask, its
    statement's live ones) is one column image (:func:`affine_images`),
    tested once per distinct offset and counted once per reference
    carrying it.
    """
    blocks, runs = plan.blocks, None   # runs: per block, statement -> points
    counts, found = [0] * len(blocks), []
    for a, (name, info) in enumerate(plan.model.arrays.items()):
        dblocks = plan.data_blocks[name]
        own = {x for x in {db.access for db in dblocks}
               if _imaged(plan, info, x)}
        walked = [(j, db.elements) for j, db in
                  enumerate(dblocks[b.index] for b in blocks)
                  if db.block is not blocks[j] or db.access not in own]
        if not walked:
            continue
        if runs is None:
            runs = [_statement_runs(plan, b.iterations) for b in blocks]
        offsets: dict[int, dict] = {}   # statement -> offset -> references
        for r in info.references:
            offsets.setdefault(r.stmt_index, {}).setdefault(r.c, []).append(r)
        for k, refs in offsets.items():
            points = [runs[j][k] for j, _ in walked]
            for img, rs in zip(affine_images(
                    info.h_rows, list(chain.from_iterable(points)), refs),
                    refs.values()):
                seen = 0
                for (j, held), its in zip(walked, points):
                    seg = list(islice(img, len(its)))
                    missed = list(compress(zip(its, seg), map(
                        not_, map(held.__contains__, seg))))
                    counts[j] += len(rs) * len(missed)
                    if missed and seen < MAX_DETAIL:
                        found += [(j, it, a, r, e) for it, e
                                  in missed[:MAX_DETAIL - seen] for r in rs]
                        seen += len(missed)
    found.sort(key=lambda f: (f[0], blocks[f[0]].iterations.index(f[1]),
                              f[3].stmt_index, f[2], f[3].slot))
    return ({blocks[j].index: n for j, n in enumerate(counts) if n},
            [(blocks[j].index, it, r, e)
             for j, it, _, r, e in found[:MAX_DETAIL]])


def _decide(plan: PartitionPlan, registry) -> tuple:
    cert, walk = certify_plan(plan, registry), _walk(plan)
    # refuted: the certificate decides; undecided: the walk alone does
    return (cert, (cert.free or not cert.decided) and not walk[0]), walk


#: plan -> ((certificate, verdict), the allocation walk)
_VERDICTS = Sidecar(_decide)


def static_verdict(plan: PartitionPlan,
                   registry: Optional[MetricsRegistry] = None
                   ) -> tuple[Certificate, bool]:
    """``(certificate, communication-free?)``: the certificate's verdict
    and the allocation check, or the allocation check alone where the
    certificate is undecided.  Decided once per plan; the certificate
    counts into ``registry`` (or the current one) when it is decided."""
    return _VERDICTS.get(plan, registry)[0]


def allocation_misses(plan: PartitionPlan,
                      registry: Optional[MetricsRegistry] = None
                      ) -> tuple[dict[int, int], list[tuple]]:
    """The allocation walk (:func:`_walk`) behind :func:`static_verdict`,
    made with it once per plan."""
    return _VERDICTS.get(plan, registry)[1]
