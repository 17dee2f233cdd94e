"""Reference spaces: Definitions 4-5 and the minimal spaces of Sec. III.C.

Four spaces per array ``A``, spans of :func:`contributions`:

======================  ==============================================
(neither argument)      ``Psi_A`` = span(Ker(H_A) ∪ {t_j}) over all
                        data-referenced vectors whose equation
                        ``H_A t = r_j`` passes Definition 4's two
                        conditions (non-duplicate data, Theorem 1).
``reduced``             ``Psi_A^r``: span(φ) for fully duplicable
                        arrays; Ker ∪ {flow-dependence solutions} for
                        partially duplicable ones (Theorem 2).
``redundancy``          ``Psi_A^min``: only vectors contributed by
                        *useful* dependences after redundant-computation
                        elimination (Theorem 3).
both                    ``Psi_A^min^r``: only useful *flow* dependences
                        (Theorem 4).
======================  ==============================================

Every vector carries the reason it is there (:class:`Contribution`), and
the planner keeps them on the breakdown, so ``repro report`` explains
Psi from the plan itself.

The paper assumes nonsingular ``H_A`` in Section III.C; we generalize by
adding ``Ker(H_A)`` whenever any useful dependence exists on the array
(for singular ``H`` every dependence-vector set is a coset of
``Ker(H_A)``, so the spanned space is the faithful generalization and
coincides with the paper's in the nonsingular case).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro.analysis.references import ArrayInfo, Reference
from repro.lang.space import IterationSpace
from repro.ratlinalg.span import Subspace

if TYPE_CHECKING:
    from repro.analysis.redundancy import RedundancyAnalysis
    from repro.ratlinalg.smith import SmithForm


@dataclass(frozen=True)
class Contribution:
    """One vector of an array's space and why it is there."""

    array: str
    vector: tuple[int, ...]  # an integer solution of H t = r (or H t = 0)
    origin: str            # "kernel" | "drv" | "flow" | "useful"
    detail: str            # human-readable provenance


def _ref_name(ref: Reference) -> str:
    return f"S{ref.stmt_index + 1} {'write' if ref.is_write else 'read'}"


def _kernel(info: ArrayInfo, smith: SmithForm) -> list[Contribution]:
    return [Contribution(info.name, k, "kernel",
                         "Ker(H): self-reuse through one reference")
            for k in smith.kernel]


def _definition4(info: ArrayInfo, space: IterationSpace) -> list[Contribution]:
    from repro.analysis.dependence import _lattice_witness
    from repro.analysis.drv import data_referenced_vectors

    smith = info.smith
    out = _kernel(info, smith)
    for drv in data_referenced_vectors(info):
        # condition (2): some integer solution of H t = r is a difference
        # of two iterations of the space -- which proves condition (1),
        # H t = r is solvable
        r = tuple(int(x) for x in drv.vector)
        if _lattice_witness(smith, r, space) is None:
            continue
        out.append(Contribution(
            info.name, smith.particular(r), "drv",
            f"data-referenced vector r={r} between "
            f"{_ref_name(drv.first)} and {_ref_name(drv.second)}"))
    return out


def _theorem2(info: ArrayInfo, space: IterationSpace) -> list[Contribution]:
    from repro.analysis.dependence import _difference, dependence_between

    smith = info.smith
    flows = []
    for w in info.writes():
        for r in info.reads():
            if dependence_between(info, w, r, space) is None:
                continue    # else its witness solves H t = r
            flows.append(Contribution(
                info.name, smith.particular(_difference(w, r)), "flow",
                f"flow dependence {_ref_name(w)} -> {_ref_name(r)} "
                f"(kept under duplication)"))
    return flows + _kernel(info, smith) if flows else []  # [] = fully duplicable


def _minimal(info: ArrayInfo, redundancy: RedundancyAnalysis,
             flow_only: bool) -> list[Contribution]:
    from repro.analysis.dependence import DependenceKind, _difference

    smith = info.smith
    useful = []
    for dep in redundancy.useful_edges:
        if dep.array != info.name or (
                flow_only and dep.kind is not DependenceKind.FLOW):
            continue    # an edge is a witnessed dependence: solvable
        useful.append(Contribution(
            info.name, smith.particular(_difference(dep.src, dep.dst)),
            "useful", f"useful {dep.kind.value} dependence "
            f"{_ref_name(dep.src)} -> {_ref_name(dep.dst)}"))
    # Non-duplicate exclusivity: a singular H_A lets two iterations
    # reach one element through a single live reference, so Ker(H_A)
    # stays in the space (no-op for the paper's nonsingular H).
    live = not flow_only and any(
        redundancy.n_set(ref.stmt_index) for ref in info.references)
    return useful + _kernel(info, smith) if useful or live else useful


def contributions(info: ArrayInfo, space: IterationSpace, reduced: bool,
                  redundancy: Optional[RedundancyAnalysis] = None,
                  ) -> list[Contribution]:
    """The vectors of ``info``'s space, each with its reason: Definition 4
    (Theorem 1), the reduced space of Theorem 2, or with ``redundancy``
    the minimal spaces of Theorems 3-4."""
    if redundancy is not None:
        return _minimal(info, redundancy, flow_only=reduced)
    return (_theorem2 if reduced else _definition4)(info, space)


def reference_space(info: ArrayInfo, space: IterationSpace) -> Subspace:
    """``Psi_A`` (Definition 4)."""
    return Subspace(info.depth, [c.vector for c in _definition4(info, space)])
