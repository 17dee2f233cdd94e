"""The compiled backend: statement-specialized Python kernels.

Each ``Assign`` is lowered *once* per (nest, scalar bindings) into
generated Python source (:mod:`repro.runtime.engine.lowering`; the
parity rules are DESIGN.md, "Kernel lowering").  The kernel indexes the
block's :class:`~repro.machine.memory.LocalMemory` value dicts
directly, and a ``KeyError`` -- an access outside the block's data
blocks -- re-executes that one statement through
``LocalMemory.load/store`` to reproduce the interpreter's exact
bookkeeping and :class:`~repro.machine.memory.RemoteAccessError`.
A nest that cannot be lowered runs on the interpreter.
"""

from __future__ import annotations

from repro.lang.ast import ArrayRef, Assign, LoopNest
from repro.runtime.engine.base import Engine
from repro.runtime.engine.lowering import (
    KernelCompileError,
    KernelTarget,
    block_points,
    block_tally,
    coord_srcs,
    iteration_kernel,
    reads_per_statement,
    remote_guard,
    replay_statement,
    tuple_src,
)


# ---------------------------------------------------------------------------
# per-block kernel target: LocalMemory value dicts
# ---------------------------------------------------------------------------

def dict_target(nest: LoopNest) -> KernelTarget:
    """Coords-keyed value dicts (``_values[array][coords]``), write
    stamps into the result's ``(block, array, coords)`` dict; an
    element the block does not hold goes to ``_remote``."""
    indices = nest.indices
    vvar = {n: f"_v{j}" for j, n in enumerate(nest.array_names())}

    def read_src(ref: ArrayRef, affine) -> str:
        return f"{vvar[ref.array]}[{tuple_src(coord_srcs(ref, indices))}]"

    def write_lines(k: int, stmt: Assign, val: str, stamp: str,
                    affine) -> list[str]:
        arr = stmt.lhs.array
        return remote_guard(k, [
            f"_val = float({val})",
            f"_k = {tuple_src(coord_srcs(stmt.lhs, indices))}",
            f"if _k not in {vvar[arr]}:",
            "    raise KeyError(_k)",
            f"{vvar[arr]}[_k] = _val",
            f"_stamps[(_bindex, {arr!r}, _k)] = {stamp}",
        ])

    return KernelTarget(
        "_block_kernel", "_values, _stamps, _remote",
        [f"{v} = _values[{n!r}]" for n, v in vvar.items()],
        read_src, write_lines)


# ---------------------------------------------------------------------------
# the engine
# ---------------------------------------------------------------------------

class CompiledEngine(Engine):
    """Statement-specialized kernels; falls back to interp when a nest
    cannot be lowered."""

    name = "compiled"
    fallback = "interp"

    def run_blocks(self, plan, memories, result, initial, scalars) -> None:
        nest = plan.nest
        space = plan.model.space
        live = plan.live
        try:
            kernel = iteration_kernel(nest, scalars, dict_target,
                                      space.rank_strides(), live is not None,
                                      plan.psi)
        except KernelCompileError:
            self.delegate().run_blocks(plan, memories, result, initial,
                                       scalars)
            return
        from repro.obs.trace import current_tracer

        nreads = reads_per_statement(nest)
        stamps = result.write_stamps
        tracer = current_tracer()
        for b, point in zip(plan.blocks, block_points(plan)):
            mem = memories[b.index]

            def remote(k, it, mem=mem):
                # LocalMemory re-counts the reads and raises
                replay_statement(nest, scalars, k, it, mem.load, mem.store)

            with tracer.span("engine.block", category="engine",
                             backend=self.name, block=b.index,
                             iterations=len(b.iterations)) as sp:
                remote_before = mem.remote_attempts
                out = kernel((point,), mem.values, stamps, remote, live,
                             space.rank_of)
                executed, reads, writes, skipped = block_tally(
                    b, out and out[0], nreads)
                result.executed_iterations += executed
                result.skipped_computations += skipped
                mem.reads += reads
                mem.writes += writes
                sp.set(statements=writes,
                       remote_accesses=mem.remote_attempts - remote_before)
