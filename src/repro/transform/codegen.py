"""Code generation for transformed nests.

- :func:`to_pseudocode` -- the paper's ``forall`` presentation (loop
  L4' style), with extended statements ``E_j`` recovering the original
  indices;
- the exact integer lowering of a
  :class:`~repro.ratlinalg.fm.LoopBound` and of an extended statement
  to Python source (a rational bound ``p/q`` becomes a floor/ceil
  division), which the one kernel emitter
  (:func:`repro.runtime.engine.lowering.emit_iteration_kernel`) builds
  its loops from;
- :func:`compile_nest` -- L' executable: ``run(arrays, scalars=None)``
  is that emitter over whole arrays (name ->
  :class:`repro.runtime.arrays.DataSpace`), so it is bit-identical to
  the interpreter by the lowering's parity rules.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Callable, Sequence

from repro.lang.ast import ArrayRef, Assign, LoopNest
from repro.ratlinalg.fm import AffineForm, LoopBound
from repro.runtime.engine.lowering import (
    KernelTarget,
    coord_srcs,
    iteration_kernel,
    tuple_src,
)
from repro.transform.loopnest import TransformedNest


# ---------------------------------------------------------------------------
# helpers: exact integer rendering of affine forms
# ---------------------------------------------------------------------------

def _integerize(form: AffineForm) -> tuple[list[int], int, int]:
    """Rewrite ``form`` as ``(num_coeffs, num_const, den)`` with
    ``form = (sum num_coeffs[j]*x_j + num_const) / den`` and ``den >= 1``."""
    den = 1
    for c in list(form.coeffs) + [form.const]:
        den = lcm(den, c.denominator)
    return ([int(c * den) for c in form.coeffs], int(form.const * den), den)


def _linear_src(coeffs: list[int], const: int, names: list[str]) -> str:
    parts: list[str] = []
    for c, nm in zip(coeffs, names):
        if c == 0:
            continue
        if c == 1:
            parts.append(f"+ {nm}" if parts else nm)
        elif c == -1:
            parts.append(f"- {nm}" if parts else f"-{nm}")
        elif c > 0:
            parts.append(f"+ {c}*{nm}" if parts else f"{c}*{nm}")
        else:
            parts.append(f"- {-c}*{nm}" if parts else f"-{-c}*{nm}")
    if const or not parts:
        parts.append((f"+ {const}" if const > 0 else f"- {-const}")
                     if parts else str(const))
    return " ".join(parts)


def _ceil_src(form: AffineForm, names: list[str]) -> str:
    coeffs, const, den = _integerize(form)
    body = _linear_src(coeffs, const, names)
    if den == 1:
        return body
    return f"-((-({body})) // {den})"


def _floor_src(form: AffineForm, names: list[str]) -> str:
    coeffs, const, den = _integerize(form)
    body = _linear_src(coeffs, const, names)
    if den == 1:
        return body
    return f"({body}) // {den}"


def _lower_src(bound: LoopBound, names: list[str]) -> str:
    parts = [_ceil_src(f, names) for f in bound.lowers]
    return parts[0] if len(parts) == 1 else "max(" + ", ".join(parts) + ")"


def _upper_src(bound: LoopBound, names: list[str]) -> str:
    parts = [_floor_src(f, names) for f in bound.uppers]
    return parts[0] if len(parts) == 1 else "min(" + ", ".join(parts) + ")"


# ---------------------------------------------------------------------------
# pseudocode (paper style)
# ---------------------------------------------------------------------------

def to_pseudocode(tnest: TransformedNest) -> str:
    """Paper-style ``forall`` rendering of the transformed nest."""
    names = tnest.var_names
    nest = tnest.nest
    lines: list[str] = []
    indent = ""
    for depth, bound in enumerate(tnest.bounds):
        var = names[depth]
        kw = "forall" if depth < tnest.k else "for"
        lo = _render_bound_forms(bound.lowers, names, "max")
        hi = _render_bound_forms(bound.uppers, names, "min")
        lines.append(f"{indent}{kw} {var} = {lo} to {hi}")
        indent += "  "
    eidx = 1
    for m_pos in sorted(tnest.extended):
        form = tnest.extended[m_pos]
        lines.append(
            f"{indent}E{eidx}: {nest.indices[m_pos]} := {form.render(names)} ;"
        )
        eidx += 1
    from repro.lang.printer import stmt_to_source

    for stmt in nest.statements:
        lines.append(f"{indent}{stmt_to_source(stmt)}")
    for depth in range(len(tnest.bounds) - 1, -1, -1):
        indent = "  " * depth
        lines.append(f"{indent}{'end-forall' if depth < tnest.k else 'end'}")
    return "\n".join(lines)


def _render_bound_forms(forms, names, agg: str) -> str:
    rendered = [f.render(names) for f in forms]
    if len(rendered) == 1:
        return rendered[0]
    return f"{agg}(" + ", ".join(rendered) + ")"


# ---------------------------------------------------------------------------
# executable Python
# ---------------------------------------------------------------------------

def array_target(nest: LoopNest) -> KernelTarget:
    """Whole arrays indexed by coordinate tuple (``_arrays[name]``); no
    stamps, no blocks' memories to miss."""
    indices = nest.indices

    def elem_src(ref: ArrayRef) -> str:
        return f"_a_{ref.array}[{tuple_src(coord_srcs(ref, indices))}]"

    def write_lines(k: int, stmt: Assign, val: str, stamp: str,
                    affine) -> list[str]:
        return [f"{elem_src(stmt.lhs)} = {val}"]

    return KernelTarget(
        "_nest_kernel", "_arrays",
        [f"_a_{n} = _arrays[{n!r}]" for n in nest.array_names()],
        lambda ref, affine: elem_src(ref), write_lines)


def run_points(tnest: TransformedNest, blocks: Sequence[Sequence[int]],
               arrays, scalars=None) -> None:
    """Run the forall points ``blocks`` of ``tnest`` on ``arrays``."""
    nest, basis = tnest.nest, tnest.basis
    zero = (0,) * nest.depth  # rank 0 everywhere: nothing is stamped
    kernel = iteration_kernel(nest, scalars or {}, array_target,
                              (zero, zero), False, basis.psi)
    # the kernel takes the partition's key: Q's rows in their own order
    order = [basis.origin.index(r) for r in range(basis.k)]
    kernel([(0, *[blk[j] for j in order]) for blk in blocks],
           arrays, None, None)


def compile_nest(tnest: TransformedNest) -> Callable:
    """``run(arrays, scalars=None)`` executing every forall point."""
    blocks = list(tnest.iterate_blocks())
    return lambda arrays, scalars=None: run_points(tnest, blocks, arrays,
                                                   scalars)
