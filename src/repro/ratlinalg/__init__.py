"""Exact rational linear algebra substrate.

Everything the partitioning analysis needs is decided *exactly* over the
rationals (``fractions.Fraction``) or the integers:

- :class:`~repro.ratlinalg.matrix.RatMat` -- dense rational matrices;
- :func:`~repro.ratlinalg.rref.rref` -- reduced row echelon form;
- :func:`~repro.ratlinalg.rref.nullspace` -- rational kernel bases;
- :func:`~repro.ratlinalg.solve.solve_particular` -- one rational
  solution of ``A x = b`` (or ``None``);
- :func:`~repro.ratlinalg.smith.smith_normal_form` -- Smith normal form
  with unimodular transforms, used to decide *integer* solvability of
  ``H t = r`` (Definition 4, condition 2 of the paper);
- :class:`~repro.ratlinalg.lattice.IntLattice` -- integer solution
  lattices and bounded enumeration;
- :class:`~repro.ratlinalg.span.Subspace` -- spans, membership, unions,
  orthogonal complements and the integer kernel basis ``Q`` (the paper's
  ``span``/``Ker``);
- :mod:`~repro.ratlinalg.fm` -- Fourier-Motzkin elimination for the
  loop-bound computation of Section IV.

The module is pure Python on purpose: the matrices involved are tiny
(``n`` = loop depth, ``d`` = array rank, both <= ~6) and exactness
matters far more than raw speed here.  The performance-sensitive parts
of the library (the simulator and the interpreters) use numpy instead.
"""

from repro.ratlinalg.matrix import RatMat, RatVec, as_fraction, frac_gcd, vec_gcd
from repro.ratlinalg.rref import rref, rank, nullspace, row_echelon_int
from repro.ratlinalg.solve import solve_particular, solve_full
from repro.ratlinalg.smith import smith_normal_form, solve_diophantine, DiophantineSolution
from repro.ratlinalg.lattice import IntLattice, integer_kernel_basis
from repro.ratlinalg.hermite import hermite_normal_form, lattice_canonical_basis
from repro.ratlinalg.span import Subspace
from repro.ratlinalg.fm import Ineq, FMSystem, eliminate, bounds_for_order, LoopBound

__all__ = [
    "RatMat",
    "RatVec",
    "as_fraction",
    "frac_gcd",
    "vec_gcd",
    "rref",
    "rank",
    "nullspace",
    "row_echelon_int",
    "solve_particular",
    "solve_full",
    "smith_normal_form",
    "solve_diophantine",
    "DiophantineSolution",
    "IntLattice",
    "integer_kernel_basis",
    "hermite_normal_form",
    "lattice_canonical_basis",
    "Subspace",
    "Ineq",
    "FMSystem",
    "eliminate",
    "bounds_for_order",
    "LoopBound",
]
