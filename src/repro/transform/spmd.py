"""SPMD per-processor code generation (Section IV's final listings).

The paper assigns forall points to processors with stepped loops:

    forall I'_{y_j} = (l'_j + (a_j - (l'_j mod p_j)) mod p_j)
                      to u'_j step p_j

so processor ``PE_{a_1..a_k}`` executes exactly the points whose ``j``-th
coordinate is congruent to ``a_j`` modulo ``p_j`` -- the same cyclic
assignment as :mod:`repro.mapping.cyclic`, expressed as code.  This
module generates that per-processor program, both as paper-style
pseudocode (the L4'/L5'/L5'' listings) and as executable Python: the
congruent forall points through the one kernel emitter
(:func:`repro.transform.codegen.run_points`).

Correctness note: with stepped outer loops the processors' iteration
sets partition the forall domain; for plans whose dependences are all
intra-block (every plan built by Theorems 1-4), running the processors
in any order -- or in parallel -- produces the sequential result.
"""

from __future__ import annotations

from typing import Callable, Iterator, Sequence

from repro.mapping.grid import ProcessorGrid
from repro.transform.codegen import _render_bound_forms, run_points
from repro.transform.loopnest import TransformedNest


def points_of_processor(tnest: TransformedNest, grid: ProcessorGrid,
                        proc: Sequence[int]) -> list[tuple[int, ...]]:
    """The forall points of grid processor ``proc``:
    ``u'_j = a_j (mod p_j)``."""
    proc = tuple(proc)
    if len(proc) != grid.k or grid.k != tnest.k:
        raise ValueError("processor coordinate arity mismatch")
    return [blk for blk in tnest.iterate_blocks()
            if tuple(v % d for v, d in zip(blk, grid.dims)) == proc]


def iterations_of_processor(
    tnest: TransformedNest,
    grid: ProcessorGrid,
    proc: Sequence[int],
) -> Iterator[tuple[int, ...]]:
    """Original iterations executed by grid processor ``proc``."""
    for blk in points_of_processor(tnest, grid, proc):
        yield from tnest.iterations_of_block(blk)


def to_spmd_pseudocode(tnest: TransformedNest, grid: ProcessorGrid) -> str:
    """Paper-style per-processor listing for symbolic ``PE_{a_1..a_k}``."""
    names = tnest.var_names
    nest = tnest.nest
    lines: list[str] = []
    indent = ""
    for depth, bound in enumerate(tnest.bounds):
        var = names[depth]
        lo = _render_bound_forms(bound.lowers, names, "max")
        hi = _render_bound_forms(bound.uppers, names, "min")
        if depth < tnest.k:
            p = grid.dims[depth]
            a = f"a{depth + 1}"
            lines.append(
                f"{indent}forall {var} = (({lo}) + ({a} - (({lo}) mod {p})) "
                f"mod {p}) to {hi} step {p}"
            )
        else:
            lines.append(f"{indent}for {var} = {lo} to {hi}")
        indent += "  "
    eidx = 1
    for m_pos in sorted(tnest.extended):
        form = tnest.extended[m_pos]
        lines.append(f"{indent}E{eidx}: {nest.indices[m_pos]} := "
                     f"{form.render(names)} ;")
        eidx += 1
    from repro.lang.printer import stmt_to_source

    for stmt in nest.statements:
        lines.append(f"{indent}{stmt_to_source(stmt)}")
    for depth in range(len(tnest.bounds) - 1, -1, -1):
        indent = "  " * depth
        lines.append(f"{indent}{'end-forall' if depth < tnest.k else 'end'}")
    return "\n".join(lines)


def compile_spmd(tnest: TransformedNest, grid: ProcessorGrid) -> Callable:
    """``run_pe(proc, arrays, scalars=None)``: processor ``proc``'s share
    of the forall loops, executable."""
    return lambda proc, arrays, scalars=None: run_points(
        tnest, points_of_processor(tnest, grid, proc), arrays, scalars)
