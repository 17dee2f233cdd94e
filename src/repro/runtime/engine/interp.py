"""The interpreter backend: the golden model's statements, run per block.

Statements are built once per run into closures over the iteration
tuple (:func:`repro.runtime.seq.build_statement`), the sequential run's
builder; here a reference reads and writes the running block's memory.
It is the slowest tier and the semantic reference: every other backend
is cross-checked against it bit for bit, and it shares no code with the
kernel lowering (run in place, it shares codegen's stamp rendering and
flat merge, which only the tests check, against hand-built dicts).  It
is the only tier ``run_parallel(strict=False)`` resolves.  A block
holds each array as ``(slot_of, values, stamps)``: an element absent
from ``slot_of`` is a miss, counted as a remote read or write, then
raising :class:`RemoteAccessError` (strict) or reading 0.0 / dropping
the write unstamped; a hit reads or writes ``values[slot]`` and stamps
``stamps[slot]``.  In place (:func:`~repro.runtime.layout.in_place`)
these are the block's :meth:`~repro.runtime.layout.PlanLayout.slot_maps`,
the store's lists and flat stamp lists; else a written array (every
array, once memories are built) is the block's region dict.
"""

from __future__ import annotations

from operator import mul
from sys import maxsize

from repro.machine.memory import RemoteAccessError
from repro.runtime.engine.base import Engine
from repro.runtime.layout import in_place


class InterpreterEngine(Engine):
    """Closure-built evaluation of one statement at a time."""

    name = "interp"
    fallback = None

    def run_blocks(self, plan, result, scalars) -> None:
        from repro.obs.trace import current_tracer
        from repro.runtime.seq import PROOFS, build_statement, read_at

        nest = plan.nest
        space = plan.model.space
        nstmts = len(nest.statements)
        live = plan.live
        tracer = current_tracer()
        memories, store = result.memories, result.store
        flat, here = in_place(result, replicas=True), in_place(result)
        stamp_lists = store.stamp_lists() if here else None
        # the running block's processor, and by array its {element: slot},
        # values and stamps; (block, stamps) of each block's region dicts
        pid = slots = values = stamps = None
        pending = []

        def arrays(bindex):
            """``(slots, values, stamps)`` of block ``bindex``, by array."""
            if here:
                return store.layout.slot_maps(bindex), store.grids, stamp_lists
            memory = memories[bindex]
            if flat:   # the written arrays' regions, the rest the store's
                regions = {n: memory.region(n) for n in store.layout.written}
                where = store.layout.slot_maps(bindex, store.layout.written)
                held = {**store.grids, **regions}
            else:
                regions = held = memory.values
                where = {name: dict(zip(r, r)) for name, r in regions.items()}
            stamped = {name: {} for name in regions}
            pending.append((bindex, stamped))
            return where, held, stamped

        def miss(array, coords, is_write: bool) -> float:
            if is_write:
                result.remote_writes += 1
            else:
                result.remote_reads += 1
            if result.strict:
                raise RemoteAccessError(pid, array, coords, is_write=is_write)
            return 0.0

        def bind(array, coords, forms):
            def get(it):
                c = coords(it)
                try:
                    return values[array][slots[array][c]]
                except KeyError:
                    return miss(array, c, False)
            return get

        rect = space.rank_strides()
        # the closed form, unrolled: a range from 0 is its own positions
        rank_of = space.ranker() if rect is None else read_at(
            range(maxsize), list(rect[1]), -sum(map(mul, *rect)))

        box, proven = space.bounding_box(), PROOFS.get(space)
        statements = [(*build_statement(stmt, nest.indices, scalars, bind,
                                        box, proven),
                       len(list(stmt.rhs.array_refs())))
                      for stmt in nest.statements]
        for b in plan.blocks:
            pid, slots = result.block_to_pid[b.index], None
            with tracer.span("engine.block", category="engine",
                             backend=self.name, block=b.index,
                             iterations=len(b.iterations)) as sp:
                remote_reads = result.remote_reads
                remote_writes = result.remote_writes
                executed = issued = 0
                for it in b.iterations:
                    stamp = rank_of(it) * nstmts
                    executed_any = False
                    for k, (array, coords_of, rhs, nreads) in \
                            enumerate(statements):
                        if live is not None and (k, it) not in live:
                            result.skipped_computations += 1
                            continue
                        if slots is None:   # on the first computation
                            slots, values, stamps = arrays(b.index)
                        value = rhs(it)
                        coords = coords_of(it)
                        try:
                            slot = slots[array][coords]
                        except KeyError:   # raises, or dropped unstamped
                            miss(array, coords, True)
                        else:
                            values[array][slot] = float(value)
                            stamps[array][slot] = stamp + k
                        executed += 1
                        issued += nreads
                        executed_any = True
                    if executed_any:
                        result.executed_iterations += 1
                remote_reads = result.remote_reads - remote_reads
                remote_writes = result.remote_writes - remote_writes
                result.reads += issued - remote_reads
                result.writes += executed - remote_writes
                sp.set(statements=executed,
                       remote_accesses=remote_reads + remote_writes)
        if pending:   # (an in-place run's stamps stay flat lists)
            result.write_stamps.update(
                ((bindex, name, c), s) for bindex, by_array in pending
                for name, dicts in by_array.items() for c, s in dicts.items())
