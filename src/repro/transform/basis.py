"""Change-of-variables machinery for the Section IV transformation.

Given the partitioning space ``Psi`` (dim ``g``) of an ``n``-deep nest:

- ``Q = {a_1, ..., a_k}`` (``k = n - g``) is an integer, gcd-normalized
  basis of ``Ker(Psi)`` (the orthogonal complement);
- elementary row operations give the echelon rows whose first-nonzero
  positions ``y_1 < ... < y_k`` decide *where* each new index variable
  sits, while the transformation itself uses the *original* rows
  ``a_{sigma^{-1}(j)}`` (the paper's Eq. (1));
- the inner sequential indices ``I_{z_1}, ..., I_{z_g}`` are the
  smallest-position original indices whose unit vectors stay linearly
  independent of ``Q`` and the previously chosen units, making the
  combined map a bijection;
- ``M`` stacks those ``n`` rows: ``x = M i`` maps an original iteration
  to its new coordinates ``(I'_{y_1}, ..., I'_{y_k}, I_{z_1}, ...,
  I_{z_g})``; the first ``k`` coordinates identify the iteration block
  (they are constant exactly on ``Psi``-cosets).

``M`` is integral and invertible but not necessarily unimodular; when
``|det M| > 1`` some integer new-coordinate points have no integer
preimage, and the executable nest simply skips them (the paper's
examples all have ``|det M| = 1``).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.ratlinalg.matrix import RatMat, RatVec
from repro.ratlinalg.rref import row_echelon_int
from repro.ratlinalg.span import Subspace


@dataclass
class TransformBasis:
    """All change-of-variables data for one partitioning space."""

    psi: Subspace
    n: int
    k: int                     # number of outer forall dimensions
    g: int                     # number of inner sequential dimensions
    q_rows: list[RatVec]       # gcd-normalized basis of Ker(Psi), original order
    pivot_cols: list[int]      # y_j (0-based), strictly increasing
    origin: list[int]          # origin[j]: index into q_rows of the row at pivot j
    inner_positions: list[int] # z_i (0-based), strictly increasing
    m: RatMat                  # x = M i  (rows: a_{sigma^{-1}(1..k)}, then e_{z_i})
    m_inv: RatMat              # i = M^{-1} x
    outer_names: list[str]     # names of I'_{y_j}
    inner_names: list[str]     # names of I_{z_i} (original index names)

    @property
    def det(self):
        return self.m.det()

    def new_coords(self, iteration) -> RatVec:
        i = iteration if isinstance(iteration, RatVec) else RatVec(list(iteration))
        return self.m @ i

    def block_coords(self, iteration) -> tuple[int, ...]:
        """The forall-point (block id) of an iteration: first ``k`` new coords."""
        x = self.new_coords(iteration)
        return tuple(int(x[j]) for j in range(self.k))

    def original_iteration(self, new_coords) -> RatVec:
        x = new_coords if isinstance(new_coords, RatVec) else RatVec(list(new_coords))
        return self.m_inv @ x


def _fresh_name(base: str, taken: set[str]) -> str:
    name = base + "p"
    while name in taken:
        name += "p"
    taken.add(name)
    return name


def build_transform_basis(psi: Subspace, index_names) -> TransformBasis:
    """Derive the Section-IV change of variables for ``Psi``."""
    n = psi.ambient_dim
    names = list(index_names)
    if len(names) != n:
        raise ValueError(f"{len(names)} index names for ambient dimension {n}")
    g = psi.dim
    k = n - g

    q_rows = [RatVec(row) for row in psi.kernel_rows()]
    assert len(q_rows) == k

    if k:
        _, pivot_cols, origin = row_echelon_int(q_rows)
    else:
        pivot_cols, origin = [], []

    # Inner indices: smallest original positions whose unit vectors are
    # independent of span(Q) and the previously chosen units.
    chosen = Subspace(n, q_rows)
    inner_positions: list[int] = []
    for m_pos in range(n):
        if len(inner_positions) == g:
            break
        e = RatVec.unit(n, m_pos)
        if e not in chosen:
            inner_positions.append(m_pos)
            chosen = chosen.with_vectors([e])
    if len(inner_positions) != g:
        raise AssertionError("could not complete the transformation basis")

    rows = [q_rows[origin[j]] for j in range(k)] + [
        RatVec.unit(n, z) for z in inner_positions
    ]
    m = RatMat(rows)
    if m.det() == 0:
        raise AssertionError("transformation matrix is singular")
    m_inv = m.inverse()

    taken = set(names)
    outer_names = [_fresh_name(names[pivot_cols[j]], taken) for j in range(k)]
    inner_names = [names[z] for z in inner_positions]

    return TransformBasis(
        psi=psi, n=n, k=k, g=g,
        q_rows=q_rows, pivot_cols=pivot_cols, origin=origin,
        inner_positions=inner_positions,
        m=m, m_inv=m_inv,
        outer_names=outer_names, inner_names=inner_names,
    )
