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

from repro._lazy import lazy_surface
# eager: ``rref`` is also this package's submodule name, and the import
# system binds a loaded submodule over anything ``__getattr__`` could say
from repro.ratlinalg.rref import rref

__getattr__, __dir__, __all__ = lazy_surface(__name__, {
    "matrix": ("RatMat", "RatVec", "as_fraction", "frac_gcd", "vec_gcd"),
    "rref": ("rank", "nullspace", "row_echelon_int"),
    "solve": ("solve_particular", "solve_full"),
    "smith": (
        "smith_normal_form", "solve_diophantine",
        "DiophantineSolution",
    ),
    "lattice": ("IntLattice", "integer_kernel_basis"),
    "hermite": ("hermite_normal_form", "lattice_canonical_basis"),
    "span": ("Subspace",),
    "fm": ("Ineq", "FMSystem", "eliminate", "bounds_for_order", "LoopBound"),
})
__all__.append("rref")
