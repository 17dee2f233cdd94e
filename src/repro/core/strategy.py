"""Strategy selection and the combined partitioning space (Theorems 1-4).

A *strategy* answers three questions:

1. May array elements be replicated?  (non-duplicate vs. duplicate)
2. Which arrays are replicated?  (all duplicable arrays by default, or
   a user-chosen subset -- the paper's L5' duplicates only ``B`` while
   L5'' duplicates both ``A`` and ``B``)
3. Are redundant computations eliminated first?  (Section III.C)

Given the answers, each array contributes its per-array space and the
partitioning space is the span of the union (Theorems 1-4):

    Psi = span(X_1 ∪ X_2 ∪ ... ∪ X_k).

The parallelism exposed is ``dim(Ker(Psi)) = n - dim(Psi)`` forall
dimensions: the smaller ``dim(Psi)``, the more parallelism.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Iterable, Optional

from repro.analysis.redundancy import RedundancyAnalysis, analyze_redundancy
from repro.analysis.references import ArrayInfo, ReferenceModel
from repro.core.refspace import (
    kernel_space,
    minimal_reduced_reference_space,
    minimal_reference_space,
    reduced_reference_space,
    reference_space,
)
from repro.ratlinalg.span import Subspace


class Strategy(enum.Enum):
    """Top-level partitioning strategy."""

    NONDUPLICATE = "nonduplicate"  # Theorem 1 (or 3 with elimination)
    DUPLICATE = "duplicate"        # Theorem 2 (or 4 with elimination)


@dataclass
class SpaceBreakdown:
    """The combined partitioning space plus per-array contributions."""

    strategy: Strategy
    eliminate_redundant: bool
    duplicated_arrays: frozenset[str]
    per_array: dict[str, Subspace]
    psi: Subspace
    redundancy: Optional[RedundancyAnalysis] = field(default=None, repr=False)

    @property
    def dim(self) -> int:
        return self.psi.dim

    @property
    def parallel_dims(self) -> int:
        """Number of forall dimensions after transformation (``n - dim(Psi)``)."""
        return self.psi.ambient_dim - self.psi.dim

    def is_fully_sequential(self) -> bool:
        return self.psi.is_full()

    def is_fully_parallel(self) -> bool:
        return self.psi.is_zero()


def _array_is_live(info: ArrayInfo, redundancy: RedundancyAnalysis) -> bool:
    return any(redundancy.n_set(ref.stmt_index) for ref in info.references)


class UnknownArrayError(ValueError):
    """``duplicate_arrays`` names an array the nest does not reference:
    an error in the request, not in the planner."""


def partitioning_space(
    model: ReferenceModel,
    strategy: Strategy = Strategy.NONDUPLICATE,
    duplicate_arrays: Optional[Iterable[str]] = None,
    eliminate_redundant: bool = False,
    redundancy: Optional[RedundancyAnalysis] = None,
) -> SpaceBreakdown:
    """Compute ``Psi`` for the chosen strategy.

    ``duplicate_arrays`` (only meaningful under ``Strategy.DUPLICATE``)
    restricts replication to the named arrays; the others contribute
    their full (non-duplicate) reference space.  ``None`` means "all
    arrays" (the Theorem 2 / Theorem 4 default).
    """
    n = model.nest.depth
    if duplicate_arrays is not None:
        dup: frozenset[str] = frozenset(duplicate_arrays)
        unknown = dup - set(model.arrays)
        if unknown:
            raise UnknownArrayError(
                f"unknown arrays in duplicate_arrays: {sorted(unknown)} "
                f"(the nest's arrays: {', '.join(sorted(model.arrays))})")
        if strategy is Strategy.NONDUPLICATE and dup:
            raise ValueError("duplicate_arrays requires Strategy.DUPLICATE")
    else:
        dup = frozenset(model.arrays) if strategy is Strategy.DUPLICATE else frozenset()

    if eliminate_redundant and redundancy is None:
        redundancy = analyze_redundancy(model)

    per_array: dict[str, Subspace] = {}
    psi = Subspace.zero(n)
    for name, info in model.arrays.items():
        use_reduced = name in dup
        if eliminate_redundant:
            assert redundancy is not None
            if use_reduced:
                space = minimal_reduced_reference_space(info, redundancy)
            else:
                space = minimal_reference_space(info, redundancy)
                # Non-duplicate exclusivity: a singular H_A lets two
                # iterations reach one element through a single live
                # reference, so Ker(H_A) must stay in the space (no-op
                # for the paper's nonsingular-H assumption).
                if _array_is_live(info, redundancy):
                    space = space.union_span(kernel_space(info))
        else:
            if use_reduced:
                space = reduced_reference_space(info, model.space)
            else:
                space = reference_space(info, model.space)
        per_array[name] = space
        psi = psi.union_span(space)

    return SpaceBreakdown(
        strategy=strategy,
        eliminate_redundant=eliminate_redundant,
        duplicated_arrays=dup,
        per_array=per_array,
        psi=psi,
        redundancy=redundancy,
    )
