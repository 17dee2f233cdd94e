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

    def read_src(ref: ArrayRef) -> str:
        return f"{vvar[ref.array]}[{tuple_src(coord_srcs(ref, indices))}]"

    def write_lines(k: int, stmt: Assign, val: str) -> list[str]:
        arr = stmt.lhs.array
        return remote_guard(k, [
            f"_val = float({val})",
            f"_k = {tuple_src(coord_srcs(stmt.lhs, indices))}",
            f"if _k not in {vvar[arr]}:",
            "    raise KeyError(_k)",
            f"{vvar[arr]}[_k] = _val",
            f"_stamps[(_bindex, {arr!r}, _k)] = _r + {k}",
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
                                      space.rank_strides(), live is not None)
        except KernelCompileError:
            self.delegate().run_blocks(plan, memories, result, initial,
                                       scalars)
            return
        from repro.obs.trace import current_tracer

        nreads = reads_per_statement(nest)
        stamps = result.write_stamps
        tracer = current_tracer()
        for b in plan.blocks:
            mem = memories[b.index]

            def remote(k, it, mem=mem):
                # LocalMemory re-counts the reads and raises
                replay_statement(nest, scalars, k, it, mem.load, mem.store)

            with tracer.span("engine.block", category="engine",
                             backend=self.name, block=b.index,
                             iterations=len(b.iterations)) as sp:
                remote_before = mem.remote_attempts
                executed, counts = kernel(b.index, b.iterations, mem.values,
                                          stamps, remote, live, space.rank_of)
                result.executed_iterations += executed
                for k, n in enumerate(counts):
                    mem.writes += n
                    mem.reads += n * nreads[k]
                    if live is not None:
                        result.skipped_computations += len(b.iterations) - n
                sp.set(statements=sum(counts),
                       remote_accesses=mem.remote_attempts - remote_before)
