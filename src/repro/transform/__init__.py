"""Program transformation (Section IV): partitioned nest -> parallel form.

Pipeline:

1. :mod:`~repro.transform.basis` -- the gcd-normalized integer basis
   ``Q`` of ``Ker(Psi)``, its row-echelon pivots ``y_j``, the inner
   index choice ``z_i`` and the (invertible) change-of-variables matrix;
2. :mod:`~repro.transform.loopnest` -- the executable
   :class:`TransformedNest` with Fourier-Motzkin loop bounds: ``k``
   outer ``forall`` dimensions (one point per iteration block) and ``g``
   inner sequential dimensions;
3. :mod:`~repro.transform.codegen` -- paper-style pseudocode and
   executable Python source for the transformed nest.
"""

from repro._lazy import lazy_surface

__getattr__, __dir__, __all__ = lazy_surface(__name__, {
    "basis": ("TransformBasis", "build_transform_basis"),
    "loopnest": ("TransformedNest", "transform_nest"),
    "codegen": ("to_pseudocode", "compile_nest"),
    "spmd": (
        "compile_spmd", "iterations_of_processor",
        "to_spmd_pseudocode",
    ),
    "validate": ("TransformValidation", "validate_transform"),
})
