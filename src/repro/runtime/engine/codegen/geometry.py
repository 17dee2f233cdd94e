"""Plan geometry for the codegen tier: what can be specialized, and how.

The codegen engine only accepts plans whose execution is *statically
enumerable*: affine integral subscripts, written arrays partitioned
across blocks (no written replicas -- the same restriction the
vectorized tier imposes), and grids small enough to materialize as
flat dense buffers.  Everything here is derived once per plan and
cached; the expensive parts (bounding boxes, the communication-audit
certificate) are one-time setup costs,
which the ledger reports as ``runtime.engine.codegen.*.cold_s`` apart
from the steady-state ``warm_s``.

One geometric fact drives the emitted source -- **grid specs**: each
array's allocated elements are embedded in the dense row-major bounding
box of their union, the geometry of the run's flat store
(:mod:`repro.runtime.layout`), so a reference's per-dimension affine
subscripts fold into *one* flat-slot affine (``base + sum(coeff_k *
i_k)``) with compile-time integer coefficients.

:func:`certify_zero_cross` is the license to elide the interpreter's
per-access ownership checks entirely.
"""

from __future__ import annotations

from repro.lang.affine import NotAffineError, affine_of
from repro.lang.ast import ArrayRef, LoopNest
from repro.runtime.layout import GridSpec, footprint_allocated, layout_for

#: Hard cap on the summed flat-grid words; beyond it the dense
#: bounding-box embedding may dwarf the actual allocation.
MAX_WORDS = 1 << 22


class CodegenUnsupported(ValueError):
    """The plan cannot be specialized; the engine delegates down-tier."""

    def __init__(self, reason: str) -> None:
        super().__init__(reason)
        self.reason = reason


def grid_specs(plan) -> dict[str, GridSpec]:
    """The plan's per-array flat-grid specs, if they fit the cap."""
    specs = layout_for(plan).specs
    total = sum(spec.size for spec in specs.values())
    if total > MAX_WORDS:
        raise CodegenUnsupported(
            f"flat grids need {total} words (cap {MAX_WORDS})")
    return specs


def check_written_partitioned(plan) -> frozenset:
    """Written arrays must be partitioned (no replicated written data).

    A replicated written element would share one slot in the global
    flat grid between two blocks, losing the per-block copy semantics
    of ``LocalMemory``; the same restriction gates the vectorized tier.
    """
    layout = layout_for(plan)
    if layout.replicated:
        raise CodegenUnsupported(f"written array {layout.replicated[0]!r} "
                                 "has replicated elements")
    return frozenset(layout.written)


def ref_affine(ref: ArrayRef, indices: tuple[str, ...]):
    """Per-dimension integral affine of one reference: (matrix, consts).

    ``matrix[d][k]`` is the coefficient of loop index ``k`` in
    subscript ``d``; anything non-affine or non-integral (rational
    coefficients need the interpreter's ``int(float)`` truncation) is
    unsupported here and falls down-tier.
    """
    matrix: list[tuple[int, ...]] = []
    consts: list[int] = []
    for sub in ref.subscripts:
        try:
            ae = affine_of(sub, indices)
        except NotAffineError as exc:
            raise CodegenUnsupported(
                f"subscript of {ref.array} is not affine: {exc}") from exc
        if not ae.is_integral():
            raise CodegenUnsupported(
                f"subscript of {ref.array} has non-integral coefficients")
        matrix.append(tuple(int(a) for a in ae.coeffs))
        consts.append(int(ae.const))
    return tuple(matrix), tuple(consts)


def flat_affine(ref: ArrayRef, indices: tuple[str, ...],
                spec: GridSpec) -> tuple[tuple[int, ...], int]:
    """The reference's flat-slot affine: (per-index coeffs, constant)."""
    matrix, consts = ref_affine(ref, indices)
    if len(matrix) != len(spec.lo):
        raise CodegenUnsupported(
            f"{ref.array} referenced with {len(matrix)} subscripts but "
            f"allocated with {len(spec.lo)} dimensions")
    coeffs = [0] * len(indices)
    const = 0
    for d, (row, c) in enumerate(zip(matrix, consts)):
        stride = spec.strides[d]
        for k, a in enumerate(row):
            coeffs[k] += a * stride
        const += (c - spec.lo[d]) * stride
    return tuple(coeffs), const


def check_nest(nest: LoopNest, specs: dict[str, GridSpec]) -> None:
    """Every reference must lower to a flat affine, or the plan is out."""
    indices = nest.indices
    for stmt in nest.statements:
        for ref in [stmt.lhs] + list(stmt.rhs.array_refs()):
            flat_affine(ref, indices, specs[ref.array])


def certify_zero_cross(plan) -> bool:
    """The zero-cross-access certificate that licenses check elision.

    What Theorems 1-4 promise, verified rather than trusted: the
    algebraic certificate proves or refutes the partition from
    ``(H, c, bounds, Q)``, one pass of column arithmetic checks the data
    blocks hold what it is proved for, and only a plan the certificate
    cannot decide pays the audit's per-access replay.  An uncertified
    plan delegates to the compiled tier and its per-access checks.
    """
    from repro.obs.certificate import certify_plan

    cert = certify_plan(plan)
    if cert.decided:
        return cert.free and footprint_allocated(plan)
    from repro.obs.audit import _static_replay

    return _static_replay(plan, max_detail=0).cross == 0
