"""The executable transformed loop nest (paper's loop L').

:func:`transform_nest` turns a loop nest plus its partitioning space
into a :class:`TransformedNest`: ``k`` outer *forall* loops (each point
is one iteration block, independently executable) and ``g`` inner
sequential loops, with exact Fourier-Motzkin bounds and the *extended
statements* that recover the original index values.

Within a block, the inner loops enumerate the block's iterations in the
original lexicographic order (the inner indices are original index
variables at increasing positions, and every earlier non-inner index is
an affine function of the block point and the preceding inner indices),
preserving all intra-block dependences.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import lcm
from typing import Iterator, Optional, Sequence

from repro.lang.ast import LoopNest
from repro.ratlinalg.fm import AffineForm, FMSystem, LoopBound, bounds_for_order
from repro.ratlinalg.span import Subspace
from repro.transform.basis import TransformBasis, build_transform_basis


@dataclass
class TransformedNest:
    """Parallel form of a partitioned nest; see module docstring."""

    nest: LoopNest
    basis: TransformBasis
    bounds: list[LoopBound]          # parallel to var order: outer then inner
    # extended statements: original index position -> affine form over the
    # new variables (in loop order); only positions NOT among the inner
    # indices appear (inner indices are loop variables themselves).
    extended: dict[int, AffineForm] = field(default_factory=dict)

    # -- structure -------------------------------------------------------
    @property
    def k(self) -> int:
        return self.basis.k

    @property
    def g(self) -> int:
        return self.basis.g

    @property
    def var_names(self) -> list[str]:
        return list(self.basis.outer_names) + list(self.basis.inner_names)

    # -- enumeration ---------------------------------------------------------
    def iterate_blocks(self) -> Iterator[tuple[int, ...]]:
        """All forall points (iteration-block coordinates), lexicographically.

        Points whose inner domain turns out empty are still yielded --
        they correspond to empty blocks and execute zero iterations,
        matching the semantics of the generated forall code.
        """
        prefix: list[int] = []

        def rec(depth: int) -> Iterator[tuple[int, ...]]:
            if depth == self.k:
                yield tuple(prefix)
                return
            for v in self.bounds[depth].range_for(prefix):
                prefix.append(v)
                yield from rec(depth + 1)
                prefix.pop()

        yield from rec(0)

    def iterations_of_block(self, block: Sequence[int]) -> Iterator[tuple[int, ...]]:
        """Original iterations of one forall point, in lexicographic order.

        New-coordinate points without an integer original preimage are
        skipped (possible only when ``|det M| > 1``).
        """
        coords: list[int] = list(block)

        def rec(depth: int) -> Iterator[tuple[int, ...]]:
            if depth == self.k + self.g:
                orig = self.basis.original_iteration(coords)
                if orig.is_integral():
                    yield orig.to_ints()
                return
            for v in self.bounds[depth].range_for(coords):
                coords.append(v)
                yield from rec(depth + 1)
                coords.pop()

        yield from rec(self.k)

    def block_of_iteration(self, iteration) -> tuple[int, ...]:
        return self.basis.block_coords(iteration)


def _constraint_rows(nest: LoopNest) -> list[tuple[list[int], int]]:
    """Original-bound constraints as (integer coeff-row over I, const),
    meaning ``row · I + const >= 0``, from the nest's
    :attr:`~repro.lang.ast.LoopNest.bound_forms` (integral: the parser
    refuses any other bound)."""
    rows: list[tuple[list[int], int]] = []
    for m_pos, (lo, hi) in enumerate(nest.bound_forms):
        # I_m - lo(I) >= 0
        rows.append(([int(j == m_pos) - a for j, a in enumerate(lo.coeffs)],
                     -lo.const))
        # hi(I) - I_m >= 0
        rows.append(([a - int(j == m_pos) for j, a in enumerate(hi.coeffs)],
                     hi.const))
    return rows


def transform_nest(nest: LoopNest,
                   psi: Subspace,
                   basis: Optional[TransformBasis] = None) -> TransformedNest:
    """Build the executable parallel form for partitioning space ``psi``."""
    if basis is None:
        basis = build_transform_basis(psi, nest.indices)
    n = nest.depth

    # Express each original-bound constraint over the new variables:
    # row·I + c >= 0  with  I = M^{-1} x  becomes  (row·M^{-1})·x + c >= 0,
    # scaled by the common denominator den of M^{-1} = N / den.
    inv = basis.m_inv.rows()
    den = lcm(*(x.denominator for row in inv for x in row))
    num = [[x.numerator * (den // x.denominator) for x in row] for row in inv]
    system = FMSystem(n)
    for row, const in _constraint_rows(nest):
        system.add([sum(row[i] * num[i][j] for i in range(n))
                    for j in range(n)], const * den)

    bounds = bounds_for_order(system, list(range(n)))

    # Extended statements: I_m as an affine form over the new variables.
    extended: dict[int, AffineForm] = {}
    for m_pos in range(n):
        if m_pos in basis.inner_positions:
            continue
        extended[m_pos] = AffineForm(tuple(
            x.numerator if x.denominator == 1 else x for x in inv[m_pos]), 0)

    return TransformedNest(nest=nest, basis=basis, bounds=bounds, extended=extended)
