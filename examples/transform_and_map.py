#!/usr/bin/env python3
"""Program transformation and processor assignment (Section IV, loop L4).

Reproduces Example 4 end to end:

1. the partitioning space Psi = span{(1,-1,1)} of the 3-nested loop L4;
2. the transformed parallel form L4' -- two forall loops, one
   sequential loop, extended statements (our kernel basis is an
   equivalent choice to the paper's, spanning the same Ker(Psi));
3. cyclic mapping of the 37 forall points onto a 2x2 processor grid:
   every processor gets exactly 16 iterations (Fig. 10);
4. execution of the generated Python code for L4' (the codegen tier's
   kernel) and comparison with the sequential interpreter.

Run:  python examples/transform_and_map.py
"""

from repro import (
    Session,
    Strategy,
    build_plan,
    catalog,
    to_pseudocode,
    transform_nest,
)
from repro.mapping import assign_blocks, shape_grid, workload_stats
from repro.runtime.engine.codegen import emit
from repro.runtime.engine.codegen.geometry import grid_specs
from repro.runtime.engine.lowering import emit_iteration_kernel


def main() -> None:
    nest = catalog.l4()
    plan = build_plan(nest, Strategy.NONDUPLICATE)
    print(f"partitioning space: {plan.psi!r}")
    print(f"iteration blocks: {plan.num_blocks}\n")

    tnest = transform_nest(nest, plan.psi)
    print("== transformed loop L4' ==")
    print(to_pseudocode(tnest))
    print()

    # --- processor assignment (Fig. 10) -----------------------------------
    grid = shape_grid(4, tnest.k)
    assignment = assign_blocks(tnest, grid)
    stats = workload_stats(assignment)
    print(f"== cyclic assignment on a {grid.dims} grid ==")
    for proc in grid.coords():
        pts = sorted(assignment.points_of[proc])
        print(f"PE{proc}: {stats.loads[proc]} iterations over {len(pts)} blocks")
    print(stats.summary())
    print()

    # --- generated code: the codegen tier's kernel, over flat lists ---------
    print("== generated Python for L4' ==")
    print(emit_iteration_kernel(
        plan.model, {}, emit.list_target(plan.model, grid_specs(plan)),
        plan.model.space.rank_strides(), False, plan.psi))

    # --- execute and compare --------------------------------------------------
    with Session(nest, Strategy.NONDUPLICATE, backend="codegen") as session:
        report = session.verify()
    print(f"generated L4' output identical to sequential: {report.ok}")


if __name__ == "__main__":
    main()
