"""The interpreter backend: the golden model, behind the Engine interface.

This is the original tree-walking executor -- :func:`repro.runtime.seq.eval_expr`
re-traversing the expression AST for every statement of every iteration.
It is the slowest tier and the semantic reference: every other backend
is cross-checked against it bit for bit.  It is also the only tier
``run_parallel(strict=False)`` ever resolves (count-but-tolerate remote
accesses), because its reads and writes go through
:class:`~repro.machine.memory.LocalMemory` one element at a time.
"""

from __future__ import annotations

from typing import Mapping

from repro.runtime.engine.base import Engine


class InterpreterEngine(Engine):
    """Tree-walking evaluation of one statement at a time."""

    name = "interp"
    fallback = None

    def run_nest(self, nest, arrays, scalars, space) -> None:
        from repro.runtime.seq import execute_statement

        def read(a, c):
            return arrays[a][c]

        def write(a, c, v):
            arrays[a][c] = v

        for it in space.iterate():
            env = dict(zip(nest.indices, it))
            for stmt in nest.statements:
                execute_statement(stmt, env, scalars, read, write)

    def run_blocks(self, plan, memories, result, initial, scalars) -> None:
        from repro.obs.trace import current_tracer
        from repro.runtime.seq import eval_expr, subscript_coords

        nest = plan.nest
        space = plan.model.space
        nstmts = len(nest.statements)
        live = plan.live
        tracer = current_tracer()
        for b in plan.blocks:
            mem = memories[b.index]

            def read(a, c, mem=mem):
                return mem.load(a, c)

            with tracer.span("engine.block", category="engine",
                             backend=self.name, block=b.index,
                             iterations=len(b.iterations)) as sp:
                remote_before = mem.remote_attempts
                statements = 0
                for it in b.iterations:
                    env = dict(zip(nest.indices, it))
                    executed_any = False
                    for k, stmt in enumerate(nest.statements):
                        if live is not None and (k, it) not in live:
                            result.skipped_computations += 1
                            continue
                        value = eval_expr(stmt.rhs, env, scalars, read)
                        coords = subscript_coords(stmt.lhs, env)
                        mem.store(stmt.lhs.array, coords, value)
                        result.write_stamps[
                            (b.index, stmt.lhs.array, coords)] = \
                            space.rank_of(it) * nstmts + k
                        statements += 1
                        executed_any = True
                    if executed_any:
                        result.executed_iterations += 1
                sp.set(statements=statements,
                       remote_accesses=mem.remote_attempts - remote_before)
