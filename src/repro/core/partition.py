"""Iteration and data partitions (Definitions 2 and 3).

``P_Psi(I^n)`` groups iterations into blocks: two iterations land in the
same block iff their difference lies in ``Psi``.  We realize this with
the integer key ``Q i``, ``Q`` being the primitive basis of ``Ker(Psi)``
(:meth:`repro.ratlinalg.span.Subspace.kernel_rows`, the same ``Q`` the
Section-IV transformation uses) -- equal keys iff the difference is in
the subspace.  Block base points are the
lexicographically smallest iteration of each block (a valid choice of
the paper's ``b_j``), and blocks are numbered in base-point order.

``P_Psi(A)`` then collects, per block, every element each array is
touched at: ``B_j^A = { H_A i + c_l : i in B_j, all l }`` -- optionally
restricted to non-redundant computations (Section III.C: "only the data
accessed by the nonredundant computations must be considered").
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import mul
from typing import Optional

from repro.analysis.references import ReferenceModel
from repro.analysis.trace import CompId
from repro.lang.space import IterationSpace
from repro.ratlinalg.span import Subspace


@dataclass(frozen=True)
class IterationBlock:
    """One block ``B_j`` of the iteration partition."""

    index: int
    base_point: tuple[int, ...]
    iterations: tuple[tuple[int, ...], ...]  # lexicographic order

    def __len__(self) -> int:
        return len(self.iterations)

    def __contains__(self, it) -> bool:
        return tuple(it) in set(self.iterations)


@dataclass(frozen=True)
class DataBlock:
    """One block ``B_j^A`` of a data partition."""

    array: str
    block_index: int
    elements: frozenset[tuple[int, ...]]

    def __len__(self) -> int:
        return len(self.elements)


def iteration_partition(space: IterationSpace, psi: Subspace) -> list[IterationBlock]:
    """``P_Psi(I^n)``: the list of iteration blocks, base-point ordered.

    ``dim(Psi) = n`` yields a single block (the whole space);
    ``dim(Psi) = 0`` yields one block per iteration.
    """
    if psi.ambient_dim != space.depth:
        raise ValueError(
            f"Psi lives in Q^{psi.ambient_dim} but the loop has depth {space.depth}"
        )
    q = psi.kernel_rows()
    groups: dict[tuple, list[tuple[int, ...]]] = {}
    for it in space.iterate():
        key = tuple([sum(map(mul, row, it)) for row in q])
        groups.setdefault(key, []).append(it)
    # space.iterate() is lexicographic, so each group's first entry is its
    # lexicographic minimum; order blocks by that base point.
    ordered = sorted(groups.values(), key=lambda g: g[0])
    return [
        IterationBlock(index=j, base_point=g[0], iterations=tuple(g))
        for j, g in enumerate(ordered)
    ]


def data_partition(
    model: ReferenceModel,
    blocks: list[IterationBlock],
    array: str,
    live: Optional[set[CompId]] = None,
) -> list[DataBlock]:
    """``P_Psi(A)`` for one array.

    With ``live`` given, only accesses of live (non-redundant)
    computations contribute elements.
    """
    info = model.arrays[array]
    if live is None:
        # references sharing an offset touch the same elements
        uses = [(c, None) for c in dict.fromkeys(r.c for r in info.references)]
    else:
        uses = [(r.c, r.stmt_index) for r in info.references]
    out: list[DataBlock] = []
    for b in blocks:
        elements = frozenset({
            info.element_at(it, c) for c, k in uses for it in b.iterations
            if live is None or (k, it) in live})
        out.append(DataBlock(array=array, block_index=b.index,
                             elements=elements))
    return out


def all_data_partitions(
    model: ReferenceModel,
    blocks: list[IterationBlock],
    live: Optional[set[CompId]] = None,
) -> dict[str, list[DataBlock]]:
    return {name: data_partition(model, blocks, name, live=live)
            for name in model.arrays}
