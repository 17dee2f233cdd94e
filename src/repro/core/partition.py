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
accessed by the nonredundant computations must be considered").  The
planner does not enumerate it: a planner's data block *is* that
definition -- its iteration block and its array's :class:`AccessMap`
(``H``, the ``(statement, offset)`` pairs, the live mask) -- and its
``elements`` are the image, derived on each read and never kept.  What
is derived per plan works from the definition instead: the flat layout
from whole-space integer columns, the allocation check by Definition 3
itself, a plan-cache entry as the access maps alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress, repeat
from operator import add, mul
from typing import TYPE_CHECKING, Iterable, Iterator, Optional, Sequence

from repro.analysis.references import ReferenceModel
from repro.lang.space import IterationSpace
from repro.ratlinalg.span import Subspace

if TYPE_CHECKING:
    from repro.analysis.trace import CompId


@dataclass(frozen=True)
class IterationBlock:
    """One block ``B_j`` of the iteration partition."""

    index: int
    base_point: tuple[int, ...]
    iterations: tuple[tuple[int, ...], ...]  # lexicographic order

    def __len__(self) -> int:
        return len(self.iterations)


@dataclass(frozen=True, eq=False)
class AccessMap:
    """What one array's data blocks are images of (Definition 3).

    The array, its ``H`` (as integer rows), the ``(statement, offset)``
    pair of every reference that contributes, and the live mask (None:
    every computation runs).  Without a mask, references sharing an
    offset touch the same elements, so each offset appears once.
    """

    array: str
    h_rows: tuple[tuple[int, ...], ...]
    refs: tuple[tuple[int, tuple[int, ...]], ...]
    live: Optional[frozenset[CompId]]

    def image(self, points: Sequence[tuple]) -> frozenset:
        """``{H i + c : i in points}`` over every (live) reference.

        Offsets outer, iterations inner: insertion order fixes the
        frozenset's iteration order, the order a rendered region has."""
        elements: set[tuple[int, ...]] = set()
        for (k, _), touched in zip(self.refs, affine_images(
                self.h_rows, points, [c for _, c in self.refs])):
            if self.live is not None:
                touched = compress(touched, [(k, it) in self.live
                                             for it in points])
            elements.update(touched)
        return frozenset(elements)


class _Image:
    """A planner's data block's ``elements``: the image of its iteration
    block under its access map, derived on each read.  It has no
    ``__set__``, so an explicit block's own ``elements`` hides it."""

    def __get__(self, db, owner=None):
        if db is None:      # no default: the field stays required
            raise AttributeError("elements")
        return db.access.image(db.block.iterations)


@dataclass(frozen=True)
class DataBlock:
    """One block ``B_j^A`` of a data partition.

    Built by the planner (:meth:`image_of`), a data block is the image
    of ``block`` under ``access``, and ``elements`` is derived from them
    on each read: the block holds its definition and nothing else, so
    two plans may share it.  Built with ``elements``
    (``dataclasses.replace`` included), it is explicit: ``block`` and
    ``access`` are None.  Either way equality and hash are those of
    ``(array, block_index, elements)``.
    """

    array: str
    block_index: int
    elements: frozenset[tuple[int, ...]] = _Image()

    # not fields: an explicit block has neither
    block = access = None

    @classmethod
    def image_of(cls, block: IterationBlock,
                 access: AccessMap) -> "DataBlock":
        db = cls.__new__(cls)
        db.__dict__.update(array=access.array, block_index=block.index,
                           block=block, access=access)
        return db

    def __len__(self) -> int:
        return len(self.elements)


def dot_columns(row: Sequence[int], columns: Sequence[Sequence[int]]
                ) -> Iterable[int]:
    """``row . x`` for every point ``x`` given as per-dimension
    ``columns``: a few C-speed ``map`` s, nothing per point."""
    acc = None
    for a, column in zip(row, columns):
        if a:
            term = column if a == 1 else map(mul, repeat(a), column)
            acc = term if acc is None else map(add, acc, term)
    if acc is None:
        return repeat(0, len(columns[0]) if columns else 0)
    return acc


def affine_images(rows: Sequence[Sequence[int]], points: Sequence[tuple],
                  offsets: Iterable[Sequence[int]]) -> Iterator[Iterator[tuple]]:
    """``M i + c`` over ``points``, in order, one iterator per offset ``c``:
    ``M i`` is :func:`dot_columns` per row over the points' index
    columns, computed once.  ``M`` needs a row (``zip()`` yields nothing)."""
    columns = list(zip(*points))
    image = [tuple(dot_columns(row, columns)) for row in rows]
    for c in offsets:
        yield zip(*[map(add, repeat(cd), column) if cd else column
                    for cd, column in zip(c, image)])


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
    points = list(space.iterate())
    # the key Q i; Psi = the whole space has no key rows, hence one block
    keys = next(affine_images(q, points, [(0,) * len(q)])) if q else repeat(())
    groups: dict[tuple, list[tuple[int, ...]]] = {}
    for key, it in zip(keys, points):
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
    """``P_Psi(A)`` for one array: per block, its image (Definition 3).

    With ``live`` given, only accesses of live (non-redundant)
    computations contribute elements.  Nothing is enumerated here.
    """
    info = model.arrays[array]
    if live is None:
        # references sharing an offset touch the same elements
        refs = {r.c: r.stmt_index for r in info.references}
        pairs = tuple((k, c) for c, k in refs.items())
    else:
        pairs = tuple(dict.fromkeys((r.stmt_index, r.c)
                                    for r in info.references))
        live = live if isinstance(live, frozenset) else frozenset(live)
    access = AccessMap(array=array, h_rows=info.h_rows, refs=pairs,
                       live=live)
    return [DataBlock.image_of(b, access) for b in blocks]


def image_map(dblocks: Sequence[DataBlock], blocks: Sequence[IterationBlock]
              ) -> Optional[AccessMap]:
    """The one access map ``dblocks`` are the images of ``blocks``
    under, block for block -- a planner's data partition -- or None."""
    access = dblocks[0].access if dblocks else None
    if access is None or not all(db.access is access and db.block is b
                                 for db, b in zip(dblocks, blocks)):
        return None
    return access


def all_data_partitions(
    model: ReferenceModel,
    blocks: list[IterationBlock],
    live: Optional[set[CompId]] = None,
) -> dict[str, list[DataBlock]]:
    return {name: data_partition(model, blocks, name, live=live)
            for name in model.arrays}
