"""The codegen engine: specialized source per (plan, geometry).

The top engine tier.  ``run_blocks`` builds (and caches, per plan) a
*program*: the plan's geometry, its communication-audit certificate
and the compiled kernel itself -- and
runs that kernel on the run's flat store in place
(:mod:`repro.runtime.layout`; its lists are the flat grids the kernel
is specialised to).  :func:`load_kernel` walks three levels
by content key: the engines' bounded in-process LRU
(``engine.codegen.cache.memory.hit``), the on-disk
:mod:`~repro.runtime.engine.codegen.diskcache` (a warm process
unmarshals the code object: zero ``engine.codegen.emit``/``compile``
spans), then fresh emission + compilation, persisted.

Anything the specializer cannot take (non-affine subscripts, written
replicas, oversized grids, a failed certificate, memories that are not
untouched views of the run's store) delegates to the compiled tier --
a plan with *actual* cross-block accesses is never run unchecked, so a
sabotaged plan raises the interpreter's first
:class:`~repro.machine.memory.RemoteAccessError` through the compiled
tier's per-access slow path.  For a run with every access checked ask
for ``--backend compiled`` (or ``interp``).
"""

from __future__ import annotations

import marshal
from itertools import repeat
from typing import Callable, Mapping, Optional

from repro.runtime.engine.base import Engine
from repro.runtime.engine.codegen import emit
from repro.runtime.engine.codegen.diskcache import get_disk_cache
from repro.runtime.engine.codegen.geometry import (
    CodegenUnsupported,
    certify_zero_cross,
    check_nest,
    check_written_partitioned,
    grid_specs,
)
from repro.runtime.engine.lowering import (
    KERNEL_CACHE,
    block_points,
    block_tally,
    emit_iteration_kernel,
    reads_per_statement,
)
from repro.runtime.layout import Sidecar, in_place_store, layout_for


def load_kernel(key: str, emit_fn: Callable[[], str],
                label: str = "kernel",
                fn_name: Optional[str] = None) -> Callable:
    """The kernel for ``key`` through the memory -> disk -> emit chain."""
    from repro.obs.metrics import current_registry
    from repro.obs.trace import current_tracer

    reg = current_registry()
    fn = KERNEL_CACHE.get(key)
    if fn is not None:
        reg.inc("engine.codegen.cache.memory.hit")
        return fn
    tracer = current_tracer()
    disk = get_disk_cache()
    code = src = None
    if disk is not None:
        code, src = disk.load(key)
    emitted = False
    if code is None:
        if src is None:
            with tracer.span("engine.codegen.emit", category="engine",
                             kernel=label, key=key[:12]):
                src = emit_fn()
            emitted = True
            reg.inc("engine.codegen.emitted")
        with tracer.span("engine.codegen.compile", category="engine",
                         kernel=label, key=key[:12]):
            code = compile(src, f"<repro-codegen:{key[:12]}>", "exec")
        if disk is not None and emitted:
            disk.store(key, src, marshal.dumps(code))
    ns: dict = {}
    exec(code, ns)
    fn = ns[fn_name or emit.KERNEL_NAME]
    KERNEL_CACHE.put(key, fn)
    return fn


# ---------------------------------------------------------------------------
# per-plan geometry and program side-cars
# ---------------------------------------------------------------------------

def _build_geometry(plan) -> dict:
    """Geometry tables of one plan."""
    check_written_partitioned(plan)
    specs = grid_specs(plan)
    check_nest(plan.nest, specs)
    return {
        "specs": specs,
        "nreads": reads_per_statement(plan.nest),
        "certified": None,  # resolved on first run
        "programs": {},
    }


#: the plan's flat layout -> geometry dict, which also holds the plan's
#: programs (one per scalar binding); "cannot be specialized" is cached
#: too (re-raising is cheap, re-deriving it is not).  Beside the layout,
#: not the plan: a plan whose blocks were rewritten gets new ones.
_GEOMETRY = Sidecar(lambda layout, plan: _build_geometry(plan),
                    negative=(CodegenUnsupported,))


def _geometry_for(plan) -> dict:
    """The (cached) geometry; raises :class:`CodegenUnsupported` when
    the plan cannot be specialized."""
    return _GEOMETRY.get(layout_for(plan), plan)


def _certified(plan, geo: dict) -> bool:
    from repro.obs.metrics import current_registry
    from repro.obs.trace import current_tracer

    if geo["certified"] is None:
        with current_tracer().span("engine.codegen.certify",
                                   category="engine",
                                   blocks=len(plan.blocks)):
            geo["certified"] = certify_zero_cross(plan)
        current_registry().inc(
            "engine.codegen.certified" if geo["certified"]
            else "engine.codegen.uncertified")
    return geo["certified"]


def program_for(plan, scalars: Mapping[str, float]) -> dict:
    """The runnable program for (plan, scalars) -- cached."""
    geo = _geometry_for(plan)
    skey = tuple(sorted(scalars.items()))
    prog = geo["programs"].get(skey)
    if prog is not None:
        return prog
    nest, specs, psi = plan.nest, geo["specs"], plan.psi
    has_live = plan.live is not None
    rank_rect = plan.model.space.rank_strides()
    key = emit.kernel_key(nest, scalars, specs, psi.kernel_rows(), rank_rect,
                          has_live)
    fn = load_kernel(key, lambda: emit_iteration_kernel(
        nest, scalars, emit.list_target(nest, specs), rank_rect, has_live,
        psi))
    prog = geo["programs"][skey] = {"key": key, "fn": fn, "geo": geo}
    return prog


# ---------------------------------------------------------------------------
# the engine
# ---------------------------------------------------------------------------

class CodegenEngine(Engine):
    """Per-plan specialized kernels over flat grids, checks elided
    under the communication audit's certificate."""

    name = "codegen"
    fallback = "compiled"

    def _delegate_blocks(self, reason, plan, memories, result, initial,
                         scalars) -> None:
        from repro.obs.metrics import current_registry
        from repro.obs.trace import current_tracer

        current_registry().inc("engine.codegen.delegated")
        current_tracer().event("engine.codegen.delegated",
                               category="engine", reason=reason)
        self.delegate().run_blocks(plan, memories, result, initial,
                                   scalars)

    def run_blocks(self, plan, memories, result, initial, scalars) -> None:
        from repro.obs.metrics import current_registry
        from repro.obs.trace import current_tracer

        if not plan.blocks:
            self.delegate().run_blocks(plan, memories, result, initial,
                                       scalars)
            return
        try:
            prog = program_for(plan, dict(scalars))
        except CodegenUnsupported as exc:
            self._delegate_blocks(exc.reason, plan, memories, result,
                                  initial, scalars)
            return
        geo = prog["geo"]
        if not _certified(plan, geo):
            # actual cross-block accesses: never run unchecked -- the
            # compiled tier reproduces the interpreter's bookkeeping
            # and its first RemoteAccessError exactly
            self._delegate_blocks("certificate-failed", plan, memories,
                                  result, initial, scalars)
            return

        store = in_place_store(result, plan, memories)
        if store is None:
            # the dicts are the memory: the compiled tier runs on dicts
            self._delegate_blocks("memories-not-flat", plan, memories,
                                  result, initial, scalars)
            return

        # in place: written arrays are partitioned and no access crosses
        # blocks, so a replica is never written and one list per array
        # holds every block's copy of every word for the whole run
        grids = store.grids
        stamps = {n: [-1] * len(grids[n]) for n in store.layout.written}

        nreads = geo["nreads"]
        iterations = stmts = 0
        with current_tracer().span("engine.codegen.exec", category="engine",
                                   backend=self.name, in_place=True,
                                   blocks=len(plan.blocks)) as sp:
            out = prog["fn"](block_points(plan), grids, stamps, plan.live,
                             plan.model.space.rank_of)
            for b, counted in zip(plan.blocks, out or repeat(None)):
                executed, reads, writes, skipped = block_tally(
                    b, counted, nreads)
                result.executed_iterations += executed
                result.skipped_computations += skipped
                mem = memories[b.index]
                mem.reads += reads
                mem.writes += writes
                iterations += len(b.iterations)
                stmts += writes
            sp.set(iterations=iterations, statements=stmts)

        store.stamps = stamps
        reg = current_registry()
        reg.inc("engine.codegen.runs")
        reg.inc("engine.codegen.blocks", len(plan.blocks))
        reg.inc("engine.codegen.iterations", iterations)
