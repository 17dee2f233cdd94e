"""Plan geometry for the codegen tier: what can be specialized, and how.

The codegen engine only accepts plans whose execution is *statically
enumerable*: written arrays partitioned across blocks (no written
replicas), and grids small enough to materialize as flat dense buffers.
Every subscript is integral affine already: the plan's model holds each
reference as ``(H, c)`` (``extract_references`` refuses anything else),
and codegen reads them there.  Everything here is derived once per
plan and cached; the expensive parts (bounding boxes, the
communication-audit certificate) are one-time setup costs, which the
ledger reports as ``runtime.engine.codegen.*.cold_s`` apart
from the steady-state ``warm_s``.

One geometric fact drives the emitted source -- **grid specs**: each
array's allocated elements are embedded in the dense row-major bounding
box of their union, the geometry of the run's flat store
(:mod:`repro.runtime.layout`), so a reference's per-dimension affine
subscripts ``H i + c`` fold into *one* flat-slot affine (``base +
sum(coeff_k * i_k)``) with compile-time integer coefficients.

The license to elide per-access ownership checks entirely is the
certificate's :func:`~repro.obs.certificate.static_verdict`.
"""

from __future__ import annotations

from repro.runtime.layout import GridSpec, layout_for

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
    of ``LocalMemory``; such plans run down the chain to ``interp``.
    """
    layout = layout_for(plan)
    if layout.replicated:
        raise CodegenUnsupported(f"written array {layout.replicated[0]!r} "
                                 "has replicated elements")
    return frozenset(layout.written)


def flat_affine(h_rows, c, spec: GridSpec) -> tuple[tuple[int, ...], int]:
    """A reference's flat-slot affine ``(per-index coeffs, constant)``
    from its ``H`` (:attr:`ArrayInfo.h_rows`) and ``c``
    (:attr:`Reference.c`), as the plan's model holds them.  An array
    only dead computations reference has an empty grid (no ``lo``): its
    slots fold to 0, and the live guard keeps them from running."""
    coeffs = [0] * len(h_rows[0])
    const = 0
    for row, cd, lo, stride in zip(h_rows, c, spec.lo, spec.strides):
        for k, a in enumerate(row):
            coeffs[k] += a * stride
        const += (cd - lo) * stride
    return tuple(coeffs), const
