"""The interpreter backend: the golden model, behind the Engine interface.

Statements are built once per run into closures over the iteration
tuple (:func:`repro.runtime.seq.build_statement`); the two entry
points differ only in where a reference reads and writes.  It is the
slowest tier and the semantic reference: every other backend is
cross-checked against it bit for bit, so it shares no code with the
kernel lowering.  It is also the only tier
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

    def run_nest(self, nest, arrays, scalars, space) -> None:
        """Over one flat list per touched array, staged before the run
        and written back after it -- also when it raises, so the caller
        sees exactly the writes made before the failing access."""
        from repro.runtime import numpy_compat as npc
        from repro.runtime.seq import build_statement

        staged = {array: (npc.flat_values(arrays[array].data),
                          arrays[array].offset)
                  for array in nest.array_names()}

        def read(array, coords):
            flat, offset = staged[array]
            return flat[offset(coords)]

        statements = []
        for stmt in nest.statements:
            array, coords, rhs = build_statement(
                stmt, nest.indices, scalars, read)
            statements.append((*staged[array], coords, rhs))
        try:
            for it in space.iterate():
                for flat, offset, coords, rhs in statements:
                    value = rhs(it)
                    flat[offset(coords(it))] = value
        finally:
            for array in {stmt.lhs.array for stmt in nest.statements}:
                npc.assign_flat(arrays[array].data, staged[array][0])

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
