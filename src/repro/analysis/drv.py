"""Data-referenced vectors (Definition 1).

For two referenced variables ``A[H i + c_1]`` and ``A[H i + c_2]`` the
data-referenced vector is ``r = c_1 - c_2``: the vector difference of
the two elements touched by the *same* iteration.  Two iterations
``i_1``, ``i_2`` touch the same element through the two references iff
``H (i_2 - i_1) = r``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.references import ArrayInfo, Reference
from repro.ratlinalg.matrix import RatVec


@dataclass(frozen=True)
class DataReferencedVector:
    """``r = first.offset - second.offset`` for a pair of distinct references."""

    array: str
    first: Reference
    second: Reference
    vector: RatVec


def data_referenced_vectors(info: ArrayInfo) -> list[DataReferencedVector]:
    """All data-referenced vectors of one array.

    Pairs are formed over *distinct offsets* (the paper's
    ``s(s-1)/2`` pairs of referenced variables); two textual references
    with equal offsets denote the same referenced variable and produce
    no vector.  Order within a pair follows first-appearance order, so
    L1's array A yields ``r = (2, 1)`` (``A[2i,j]`` minus
    ``A[2i-2,j-1]``) exactly as in the paper.
    """
    reps: list[Reference] = []
    seen: set[tuple] = set()
    for r in info.references:
        if r.c not in seen:
            seen.add(r.c)
            reps.append(r)
    out: list[DataReferencedVector] = []
    for a in range(len(reps)):
        for b in range(a + 1, len(reps)):
            out.append(
                DataReferencedVector(
                    array=info.name,
                    first=reps[a],
                    second=reps[b],
                    vector=reps[a].offset - reps[b].offset,
                )
            )
    return out
