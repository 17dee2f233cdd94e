"""Rational vector subspaces: ``span(X)`` as a first-class object.

The paper manipulates subspaces constantly -- reference spaces
``Psi_A``, their unions across arrays (Theorems 1-4), kernels, and
``Ker(Psi)`` for the transformation.  :class:`Subspace` provides exact
membership, sums, complements and the integer kernel basis ``Q``.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro._lazy import Sidecar
from repro.ratlinalg.matrix import RatMat, RatVec
from repro.ratlinalg.rref import nullspace, rref


class Subspace:
    """A linear subspace of Q^n represented by a canonical RREF basis.

    Two subspaces are equal iff their canonical bases are equal, so
    ``==`` implements true set equality of subspaces.
    """

    __slots__ = ("ambient_dim", "_basis", "__weakref__")

    def __init__(self, ambient_dim: int, vectors: Iterable[Sequence] = ()):
        self.ambient_dim = ambient_dim
        vecs = [tuple(v) for v in vectors]
        for v in vecs:
            if len(v) != ambient_dim:
                raise ValueError(
                    f"vector of length {len(v)} in ambient dimension {ambient_dim}"
                )
        nonzero = [v for v in vecs if any(v)]
        if not nonzero:
            self._basis: tuple[RatVec, ...] = ()
        else:
            R, pivots = rref(nonzero)
            self._basis = tuple(R.row(i) for i in range(len(pivots)))

    # -- constructors ----------------------------------------------------
    @staticmethod
    def zero(ambient_dim: int) -> "Subspace":
        """``span(φ)`` -- the trivial subspace {0}."""
        return Subspace(ambient_dim, ())

    @staticmethod
    def full(ambient_dim: int) -> "Subspace":
        return Subspace(ambient_dim, RatMat.identity(ambient_dim).rows())

    @staticmethod
    def kernel_of(m: RatMat) -> "Subspace":
        """``Ker(m)`` as a subspace of Q^ncols."""
        return Subspace(m.ncols, nullspace(m))

    # -- basic queries -----------------------------------------------------
    @property
    def dim(self) -> int:
        return len(self._basis)

    def primitive_basis(self) -> list[RatVec]:
        """Basis scaled to integer vectors with gcd 1 (paper's ``Q`` convention)."""
        return [v.primitive() for v in self._basis]

    def is_zero(self) -> bool:
        return self.dim == 0

    def is_full(self) -> bool:
        return self.dim == self.ambient_dim

    def __contains__(self, v) -> bool:
        if not isinstance(v, RatVec):
            v = RatVec(v)
        if len(v) != self.ambient_dim:
            return False
        if v.is_zero():
            return True
        if self.dim == 0:
            return False
        stacked = RatMat(list(self._basis) + [v])
        _, pivots = rref(stacked)
        return len(pivots) == self.dim

    def __eq__(self, other) -> bool:
        if not isinstance(other, Subspace):
            return NotImplemented
        return self.ambient_dim == other.ambient_dim and self._basis == other._basis

    def __hash__(self) -> int:
        return hash((self.ambient_dim, self._basis))

    def __repr__(self) -> str:
        if self.dim == 0:
            return f"Subspace(dim=0 in Q^{self.ambient_dim})"
        vecs = ", ".join(
            "(" + ", ".join(str(x) for x in v) + ")" for v in self.primitive_basis()
        )
        return f"Subspace(span{{{vecs}}} in Q^{self.ambient_dim})"

    # -- algebra ---------------------------------------------------------
    def with_vectors(self, vectors: Iterable[Sequence]) -> "Subspace":
        """``span(self ∪ vectors)``: the paper's partitioning-space union."""
        return Subspace(self.ambient_dim, list(self._basis) + [
            v if isinstance(v, RatVec) else RatVec(v) for v in vectors
        ])

    # -- complements ---------------------------------------------------------
    def orthogonal_complement(self) -> "Subspace":
        """``Ker(Psi)`` in the Section-IV sense: {x : b·x = 0 for all b in basis}."""
        if self.dim == 0:
            return Subspace.full(self.ambient_dim)
        return Subspace.kernel_of(RatMat(self._basis))

    def kernel_rows(self) -> tuple[tuple[int, ...], ...]:
        """The paper's ``Q`` (Sec. IV): the gcd-normalised integer basis of
        ``Ker(Psi)``, as plain integer rows.

        ``Q v == Q w`` iff ``v - w`` lies in this subspace, so ``Q i`` is
        the canonical key of the coset ``i + self`` -- exactly the paper's
        criterion for two iterations to share an iteration block
        (Definition 2) -- in integer arithmetic for integer points.
        Derived once per subspace, however many consumers read it.
        """
        return _KERNEL_ROWS.get(self)


_KERNEL_ROWS = Sidecar(lambda space: tuple(
    v.to_ints() for v in space.orthogonal_complement().primitive_basis()))
