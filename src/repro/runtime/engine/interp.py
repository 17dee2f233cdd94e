"""The interpreter backend: the golden model's statements, run per block.

Statements are built once per run into closures over the iteration
tuple (:func:`repro.runtime.seq.build_statement`) -- the same builder
the sequential run (:func:`repro.runtime.seq.run_sequential`) uses; here
a reference reads and writes the running block's memory instead of the
arrays.  It is the slowest tier and the semantic reference: every other
backend is cross-checked against it bit for bit, so it shares no code
with the kernel lowering.  It is also the only tier
``run_parallel(strict=False)`` ever resolves (count-but-tolerate remote
accesses), because its block reads and writes go through
:class:`~repro.machine.memory.LocalMemory` one element at a time.
"""

from __future__ import annotations

from repro.runtime.engine.base import Engine


class InterpreterEngine(Engine):
    """Closure-built evaluation of one statement at a time."""

    name = "interp"
    fallback = None

    def run_blocks(self, plan, memories, result, initial, scalars) -> None:
        from repro.obs.trace import current_tracer
        from repro.runtime.seq import build_statement

        nest = plan.nest
        space = plan.model.space
        nstmts = len(nest.statements)
        live = plan.live
        tracer = current_tracer()
        mem = None  # the running block's memory; ``load`` reads the cell

        def load(array, coords):
            return mem.load(array, coords)

        statements = [build_statement(stmt, nest.indices, scalars, load)
                      for stmt in nest.statements]
        for b in plan.blocks:
            mem = memories[b.index]
            with tracer.span("engine.block", category="engine",
                             backend=self.name, block=b.index,
                             iterations=len(b.iterations)) as sp:
                remote_before = mem.remote_attempts
                executed = 0
                for it in b.iterations:
                    stamp = space.rank_of(it) * nstmts
                    executed_any = False
                    for k, (array, coords_of, rhs) in enumerate(statements):
                        if live is not None and (k, it) not in live:
                            result.skipped_computations += 1
                            continue
                        value = rhs(it)
                        coords = coords_of(it)
                        mem.store(array, coords, value)
                        result.write_stamps[(b.index, array, coords)] = \
                            stamp + k
                        executed += 1
                        executed_any = True
                    if executed_any:
                        result.executed_iterations += 1
                sp.set(statements=executed,
                       remote_accesses=mem.remote_attempts - remote_before)
