"""The worker side: one share = one call of codegen's kernel.

``run_share`` is the pool entry point.  A share carries the run's
:class:`~repro.runtime.blockstore.store.StoreDescriptor` (segment names,
grid geometry, kernel key, and the kernel's inputs: nest, Psi, space,
live set) and its points of
:func:`~repro.runtime.engine.lowering.block_points` -- no plan, no
memories.  The worker attaches the store by name, copies the values
into private grids, runs the kernel, which
:func:`~repro.runtime.engine.codegen.engine.kernel_for` loads by
codegen's own key (memory -> disk -> emit, and memoised per process),
publishes every slot it stamped (value before stamp), and closes the
store again: nothing of a run outlives its share in the worker.

Only the kernel's counted rows go home, with the share's scoped
observability (``engine.codegen.exec`` span, ``engine.worker.*`` and
``engine.shm.attaches`` counters) as a
:class:`~repro.obs.aggregate.WorkerObs`.
"""

from __future__ import annotations

from repro.runtime.blockstore.store import (
    attach_segment,
    close_segment,
    flat_view,
)


def _run(desc, points):
    """The kernel over ``points`` on a private copy of the store;
    publish what it wrote."""
    from repro.obs.metrics import current_registry
    from repro.runtime.engine.codegen.engine import kernel_for

    segs = [attach_segment(desc.values_segment),
            attach_segment(desc.stamps_segment)]
    values = flat_view(segs[0], "d", desc.words)
    stamps = flat_view(segs[1], "q", desc.words)
    try:
        current_registry().inc("engine.shm.attaches")
        flat = values.tolist()
        grids = {name: flat[off:off + size]
                 for name, off, size in desc.spans()}
        #: written array -> its private stamp list
        own = {name: [-1] * size for name, _, size in desc.spans()
               if name in desc.written}
        kernel = kernel_for(desc.key, desc.model, desc.psi, desc.live,
                            dict(desc.scalars), desc.specs)
        counted = kernel(points, grids, own, desc.live,
                         desc.model.space.ranker())
        offsets = {name: off for name, off, _ in desc.spans()}
        for name, got in own.items():
            grid, off = grids[name], offsets[name]
            for i in [i for i, s in enumerate(got) if s >= 0]:
                values[off + i] = grid[i]
                stamps[off + i] = got[i]
        return counted
    finally:
        values.release()
        stamps.release()
        for seg in segs:
            close_segment(seg)


def run_share(payload):
    """Pool entry point: one share of block points against the store
    descriptor -> ``(counted rows, WorkerObs)``."""
    desc, points, trace_enabled = payload
    from repro.obs.aggregate import capture_worker_obs
    from repro.obs.metrics import MetricsRegistry, use_registry
    from repro.obs.trace import Tracer, use_tracer

    tracer = Tracer(enabled=trace_enabled)
    registry = MetricsRegistry()
    with use_tracer(tracer), use_registry(registry):
        registry.inc("engine.worker.chunks")
        registry.inc("engine.worker.blocks", len(points))
        with tracer.span("engine.codegen.exec", category="engine",
                         backend="multiprocess", blocks=len(points),
                         key=desc.key):
            counted = _run(desc, points)
    return counted, capture_worker_obs(tracer, registry)
