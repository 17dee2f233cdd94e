"""The worker-side lease runner for the shared-memory store.

``run_store_lease`` is the pool entry point of the by-descriptor path:
the payload carries segment *names* and block *indices* -- no plan, no
memories.  Everything heavy is cached per worker process and keyed by
segment name, so a persistent pool amortizes it across every lease and
every run of a session, while a respawned worker (chaos) simply
re-attaches to the store by name on its first lease:

- the plan: attached, unpickled and cached once per plan segment;
- the run context: seed/values/stamps views over the attached segments
  plus the control blob's block -> pid map, cached per run (bounded;
  evicted contexts detach their segments);
- the per-block tables (coords -> block-local slot maps plus the
  block's region spans), derived from the shared canonical layout;
- the store kernel itself: the shared block-kernel lowering aimed at
  the flat views by :func:`slot_target` (DESIGN.md, "Kernel lowering"),
  or the certified storegen kernel attached by key.

Each block attempt computes in a *worker-private* copy of the block's
regions, seeded from the read-only seed buffer, and publishes final
values/stamps into the shared buffers only at the end.  That keeps
retries idempotent even for read-modify-write nests (matmul's ``C``
accumulation): a partial attempt never leaks intermediate accumulator
state into what the retry reads, and duplicate concurrent attempts
publish identical bytes per slot (same seed, same deterministic
kernel), so shared writes stay race-free by value-identity.

Observability mirrors the by-value worker exactly: a fresh scoped
tracer/registry per lease, ``engine.block`` spans per block,
``engine.worker.chunks`` / ``blocks`` / ``executed_iterations``
counters, plus ``engine.shm.attaches`` when this process first attaches
a run -- all shipped home as a
:class:`~repro.obs.aggregate.WorkerObs` and re-homed under the parent's
``scheduler.run`` span.  Injected faults keep their by-value semantics:
SLOW sleeps, CRASH does the work then kills the process (its published
*finals* survive in the store -- harmless, because the retry republishes
the same slots with the same values, the idempotence Theorems 1-4
guarantee), DROP returns the loss marker.
"""

from __future__ import annotations

import os
import time
from collections import OrderedDict

from repro.lang.ast import ArrayRef, Assign, LoopNest
from repro.machine.memory import RemoteAccessError
from repro.runtime import numpy_compat as npc
from repro.runtime.blockstore.layout import layout_for
from repro.runtime.blockstore.store import (
    StoreDescriptor,
    attach_segment,
    read_blob,
)
from repro.runtime.engine.lowering import (
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

_MAX_CACHED = 4

#: plan segment name -> unpickled plan
_PLANS: "OrderedDict[str, object]" = OrderedDict()
#: control segment name -> run context dict
_RUNS: "OrderedDict[str, dict]" = OrderedDict()
#: (plan segment name, block) -> (coords -> local slot per array,
#: (global off, local off, count) region spans, local words)
_TABLES: dict[tuple[str, int], tuple] = {}
#: (plan segment name, block) -> codegen store-kernel rect args
_RECTS: dict[tuple[str, int], tuple] = {}


def slot_target(nest: LoopNest) -> KernelTarget:
    """Per-array coords -> slot dicts (``_idx``) over the flat float64
    ``_vals`` and int64 ``_stamps`` views; a coordinate the block does
    not hold goes to ``_remote``."""
    indices = nest.indices
    ivar = {n: f"_i{j}" for j, n in enumerate(nest.array_names())}

    def slot_src(ref: ArrayRef) -> str:
        return f"{ivar[ref.array]}[{tuple_src(coord_srcs(ref, indices))}]"

    def read_src(ref: ArrayRef, affine) -> str:
        return f"float(_vals[{slot_src(ref)}])"

    def write_lines(k: int, stmt: Assign, val: str, stamp: str,
                    affine) -> list[str]:
        return remote_guard(k, [
            f"_val = float({val})",
            f"_p = {slot_src(stmt.lhs)}",
            "_vals[_p] = _val",
            f"_stamps[_p] = {stamp}",
        ])

    return KernelTarget(
        "_store_kernel", "_idx, _vals, _stamps, _remote",
        [f"{v} = _idx[{n!r}]" for n, v in ivar.items()],
        read_src, write_lines)


def _plan_for(name: str):
    import pickle

    plan = _PLANS.get(name)
    if plan is None:
        seg = attach_segment(name)
        try:
            plan = pickle.loads(read_blob(seg))
        finally:
            seg.close()
        while len(_PLANS) >= _MAX_CACHED:
            stale, _ = _PLANS.popitem(last=False)
            for key in [k for k in _TABLES if k[0] == stale]:
                del _TABLES[key]
            for key in [k for k in _RECTS if k[0] == stale]:
                del _RECTS[key]
        _PLANS[name] = plan
    return plan


def _evict_run(ctx: dict) -> None:
    ctx["seed"] = ctx["values"] = ctx["stamps"] = None
    for seg in ctx.pop("segs", ()):
        try:
            seg.close()
        except BufferError:  # pragma: no cover - defensive
            pass


def _run_ctx(desc: StoreDescriptor) -> dict:
    import pickle

    from repro.obs.metrics import current_registry

    ctx = _RUNS.get(desc.control_segment)
    if ctx is not None:
        return ctx
    np = npc.np
    plan = _plan_for(desc.plan_segment)
    dseg = attach_segment(desc.seed_segment)
    vseg = attach_segment(desc.values_segment)
    sseg = attach_segment(desc.stamps_segment)
    cseg = attach_segment(desc.control_segment)
    try:
        pid_by_block = pickle.loads(read_blob(cseg))
    finally:
        cseg.close()
    space = plan.model.space
    ctx = {
        "plan": plan,
        "plan_segment": desc.plan_segment,
        "seed": np.frombuffer(dseg.buf, dtype=np.float64,
                              count=desc.words),
        "values": np.frombuffer(vseg.buf, dtype=np.float64,
                                count=desc.words),
        "stamps": np.frombuffer(sseg.buf, dtype=np.int64, count=desc.words),
        "segs": (dseg, vseg, sseg),
        "pid_by_block": pid_by_block,
        "blocks_by_index": {b.index: (b, point) for b, point
                            in zip(plan.blocks, block_points(plan))},
        "space": space,
        "rank_rect": space.rank_strides(),
        "nreads": reads_per_statement(plan.nest),
    }
    while len(_RUNS) >= _MAX_CACHED:
        _, stale = _RUNS.popitem(last=False)
        _evict_run(stale)
    _RUNS[desc.control_segment] = ctx
    current_registry().inc("engine.shm.attaches")
    return ctx


def _block_tables(ctx: dict, bindex: int) -> tuple:
    """The block's local slot maps and region spans (cached).

    Slots are rebased to *block-local* offsets so an attempt can run
    against a private buffer holding just this block's regions; the
    spans say where each region lives in the shared buffers.
    """
    key = (ctx["plan_segment"], bindex)
    hit = _TABLES.get(key)
    if hit is None:
        layout = layout_for(ctx["plan"])
        idx: dict[str, dict] = {}
        regions = []
        loff = 0
        for name in layout.arrays:
            goff, cnt = layout.regions[(name, bindex)]
            idx[name] = {c: s - goff + loff
                         for c, s in layout.slots(name, bindex).items()}
            if cnt:
                regions.append((goff, loff, cnt))
            loff += cnt
        hit = (idx, tuple(regions), loff)
        _TABLES[key] = hit
    return hit


def _run_block(ctx: dict, bindex: int, scalars, kernel, live, out) -> None:
    """One block through the store kernel (stats onto ``out``)."""
    from repro.obs.trace import current_tracer

    np = npc.np
    plan = ctx["plan"]
    nest = plan.nest
    seed = ctx["seed"]
    b, point = ctx["blocks_by_index"][bindex]
    pid = ctx["pid_by_block"][b.index]
    idx, regions, nwords = _block_tables(ctx, b.index)
    # a private copy of the block's regions: attempts must not read
    # (or leak) another attempt's intermediate accumulator state
    values = np.empty(nwords, dtype=np.float64)
    stamps = np.full(nwords, -1, dtype=np.int64)
    for goff, loff, cnt in regions:
        values[loff:loff + cnt] = seed[goff:goff + cnt]

    def slot(a, c, is_write):
        p = idx[a].get(c)
        if p is None:
            raise RemoteAccessError(pid, a, c, is_write=is_write)
        return p

    def store(a, c, value):
        values[slot(a, c, True)] = value

    def remote(k, it):
        replay_statement(nest, scalars, k, it,
                         lambda a, c: float(values[slot(a, c, False)]), store)

    with current_tracer().span("engine.block", category="engine",
                               backend="shm", block=b.index,
                               iterations=len(b.iterations)) as sp:
        counted = kernel((point,), idx, values, stamps, remote, live,
                         ctx["space"].rank_of)
        # publish finals: only written slots, values before stamps, so a
        # stamp >= 0 in the shared buffer always covers a final value
        for goff, loff, cnt in regions:
            ls = stamps[loff:loff + cnt]
            hit = ls >= 0
            if hit.any():
                ctx["values"][goff:goff + cnt][hit] = \
                    values[loff:loff + cnt][hit]
                ctx["stamps"][goff:goff + cnt][hit] = ls[hit]
        executed, reads, writes, skipped = block_tally(
            b, counted and counted[0], ctx["nreads"])
        out.executed_iterations += executed
        out.skipped_computations += skipped
        out.counts[b.index] = (reads, writes)
        sp.set(statements=writes)


def _codegen_kernel(ctx: dict, key: str, scalars):
    """The codegen store kernel for ``key``, adapted to the dict-kernel
    signature, or None (any failure falls back to the generic kernel).

    A warm worker serves it from its in-process cache; a fresh worker
    unmarshals the parent's persisted code object from the shared
    on-disk cache -- zero emit/compile work either way.  The parent only
    set the key after the communication audit certified zero cross-block
    accesses, so the specialized kernel's elided ownership checks are
    sound and the ``idx``/``remote`` machinery goes unused.
    """
    from repro.obs.metrics import current_registry

    try:
        from repro.runtime.engine.codegen.storegen import (
            attach_store_kernel,
            block_rect_args,
        )

        raw = attach_store_kernel(key, ctx["plan"], scalars)
    except Exception:  # pragma: no cover - any failure -> dict kernel
        current_registry().inc("engine.codegen.store.attach-failed")
        return None
    current_registry().inc("engine.codegen.store_kernels")
    layout = layout_for(ctx["plan"])
    nest = ctx["plan"].nest
    seg = ctx["plan_segment"]

    def kernel(points, idx, values, stamps, remote, live, rank_of):
        rkey = (seg, points[0][0])
        rect = _RECTS.get(rkey)
        if rect is None:
            rect = block_rect_args(layout, nest, rkey[1])
            _RECTS[rkey] = rect
        return raw(points, rect, values, stamps, live, rank_of)

    return kernel


def run_store_lease(payload):
    """Pool entry point: one lease = one unit of block indices against
    the store descriptor.  Mirrors the by-value ``_run_lease`` fault
    and observability semantics exactly."""
    (uid, attempt, desc, block_indices, scalars, trace_enabled, fault,
     slow_s, block_slow_s, slow_blocks) = payload
    from repro.obs.aggregate import capture_worker_obs
    from repro.obs.metrics import MetricsRegistry, use_registry
    from repro.obs.trace import Tracer, use_tracer
    from repro.runtime.scheduler.core import _DROPPED, _UnitOutcome
    from repro.runtime.scheduler.faults import CRASH, DROP, SLOW

    if fault == SLOW and slow_s > 0:
        time.sleep(slow_s)
    tracer = Tracer(enabled=trace_enabled)
    registry = MetricsRegistry()
    out = _UnitOutcome()
    with use_tracer(tracer), use_registry(registry):
        registry.inc("engine.worker.chunks")
        registry.inc("engine.worker.blocks", len(block_indices))
        ctx = _run_ctx(desc)
        live = ctx["plan"].live
        kernel = None
        if desc.codegen_key:
            kernel = _codegen_kernel(ctx, desc.codegen_key, scalars)
        if kernel is None:
            kernel = iteration_kernel(ctx["plan"].nest, scalars, slot_target,
                                      ctx["rank_rect"], live is not None,
                                      ctx["plan"].psi)
        try:
            for bindex in block_indices:
                if bindex in slow_blocks and block_slow_s > 0:
                    time.sleep(block_slow_s)
                _run_block(ctx, bindex, scalars, kernel, live, out)
        except RemoteAccessError as exc:
            out.remote = (exc.pid, exc.array, exc.coords, exc.is_write)
        registry.inc("engine.worker.executed_iterations",
                     out.executed_iterations)
    out.obs = capture_worker_obs(tracer, registry)
    if fault == CRASH:
        os._exit(3)
    if fault == DROP:
        return (uid, attempt, _DROPPED)
    return (uid, attempt, out)
