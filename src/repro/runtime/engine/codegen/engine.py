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
spans), then fresh emission + compilation, persisted.  A kernel whose
disk entry held only usable source is compiled from it and stored
again, so a stale ``.bin`` is rewritten once, not recompiled by every
process.

Anything the specializer cannot take (non-affine subscripts, written
replicas, oversized grids, a failed certificate, a run with no store or
with its block memories already built) delegates to the interpreter -- a
plan with *actual* cross-block accesses is never run unchecked, so a
sabotaged plan raises the interpreter's first
:class:`~repro.machine.memory.RemoteAccessError` because the
interpreter raised it.  For a run with every access checked ask for
``--backend interp``.
"""

from __future__ import annotations

import marshal
from typing import Callable, Mapping, Optional

from repro._lazy import Sidecar
from repro.runtime.engine.base import Engine
from repro.runtime.engine.codegen import emit
from repro.runtime.engine.codegen.diskcache import get_disk_cache
from repro.runtime.engine.codegen.geometry import (
    CodegenUnsupported,
    check_written_partitioned,
    grid_specs,
)
from repro.runtime.engine.lowering import (
    KERNEL_CACHE,
    block_points,
    charge_blocks,
    emit_iteration_kernel,
    reads_per_statement,
)
from repro.runtime.layout import GridSpec, in_place


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
    if code is None:
        if src is None:
            with tracer.span("engine.codegen.emit", category="engine",
                             kernel=label, key=key[:12]):
                src = emit_fn()
            reg.inc("engine.codegen.emitted")
        with tracer.span("engine.codegen.compile", category="engine",
                         kernel=label, key=key[:12]):
            code = compile(src, f"<repro-codegen:{key[:12]}>", "exec")
        if disk is not None:   # new, or a stale or missing code object
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
    return {
        "specs": specs,
        "nreads": reads_per_statement(plan.nest),
        "certified": None,  # resolved on first run
        "programs": {},
    }


#: plan -> geometry dict, which also holds the plan's programs (one per
#: scalar binding); "cannot be specialized" is cached too (re-raising is
#: cheap, re-deriving it is not).  The lambda looks ``_build_geometry``
#: up at each build, so a substituted one is what runs.
_GEOMETRY = Sidecar(lambda plan: _build_geometry(plan),
                    negative=(CodegenUnsupported,))


def _geometry_for(plan) -> dict:
    """The (cached) geometry; raises :class:`CodegenUnsupported` when
    the plan cannot be specialized."""
    return _GEOMETRY.get(plan)


def _certified(plan, geo: dict) -> bool:
    """The communication audit's static verdict: what licenses check
    elision (an uncertified plan delegates to the interpreter)."""
    from repro.obs.certificate import static_verdict
    from repro.obs.metrics import current_registry
    from repro.obs.trace import current_tracer

    if geo["certified"] is None:
        with current_tracer().span("engine.codegen.certify",
                                   category="engine",
                                   blocks=len(plan.blocks)):
            geo["certified"] = static_verdict(plan)[1]
        current_registry().inc(
            "engine.codegen.certified" if geo["certified"]
            else "engine.codegen.uncertified")
    return geo["certified"]


def kernel_for(key: str, model, psi, live,
               scalars: Mapping[str, float],
               specs: Mapping[str, GridSpec]) -> Callable:
    """Codegen's kernel, by its key, for ``model``'s nest cut along
    ``psi`` on grids of ``specs``: the model's space ranks the stamps,
    and a ``live`` set (not None) masks the dead computations."""
    return load_kernel(key, lambda: emit_iteration_kernel(
        model, scalars, emit.list_target(model, specs),
        model.space.rank_strides(), live is not None, psi))


def program_for(plan, scalars: Mapping[str, float]) -> dict:
    """The runnable program for (plan, scalars) -- cached."""
    geo = _geometry_for(plan)
    skey = tuple(sorted(scalars.items()))
    prog = geo["programs"].get(skey)
    if prog is not None:
        return prog
    specs = geo["specs"]
    key = emit.kernel_key(plan.nest, scalars, specs, plan.psi.kernel_rows(),
                          plan.model.space.rank_strides(),
                          plan.live is not None)
    prog = geo["programs"][skey] = {
        "key": key, "geo": geo,
        "fn": kernel_for(key, plan.model, plan.psi, plan.live, scalars,
                         specs)}
    return prog


def in_place_program(plan, result, scalars: Mapping[str, float]) -> dict:
    """The program when codegen may run ``plan`` on ``result``'s flat
    store in place (:func:`~repro.runtime.layout.in_place`, which the
    interpreter shares).  Raises :class:`CodegenUnsupported` saying why not.
    A plan with *actual* cross-block accesses is never run unchecked:
    the interpreter below runs it, with its own bookkeeping and first
    ``RemoteAccessError``."""
    prog = program_for(plan, dict(scalars))
    if not _certified(plan, prog["geo"]):
        raise CodegenUnsupported("certificate-failed")
    if not in_place(result):
        # the dicts are the memory: the interpreter runs on dicts
        raise CodegenUnsupported("memories-not-flat")
    return prog


# ---------------------------------------------------------------------------
# the engine
# ---------------------------------------------------------------------------

class CodegenEngine(Engine):
    """Per-plan specialized kernels over flat grids, checks elided
    under the communication audit's certificate."""

    name = "codegen"
    fallback = "interp"

    def run_blocks(self, plan, result, scalars) -> None:
        from repro.obs.metrics import current_registry
        from repro.obs.trace import current_tracer

        if not plan.blocks:
            self.delegate().run_blocks(plan, result, scalars)
            return
        try:
            prog = in_place_program(plan, result, scalars)
        except CodegenUnsupported as exc:
            current_registry().inc("engine.codegen.delegated")
            current_tracer().event("engine.codegen.delegated",
                                   category="engine", reason=exc.reason)
            self.delegate().run_blocks(plan, result, scalars)
            return

        # certified in place: one list per array holds every block's
        # copy of every word for the whole run
        store = result.store
        stamps = store.stamp_lists()

        with current_tracer().span("engine.codegen.exec", category="engine",
                                   backend=self.name, in_place=True,
                                   blocks=len(plan.blocks)) as sp:
            out = prog["fn"](block_points(plan), store.grids, stamps,
                             plan.live, plan.model.space.ranker())
            iterations, stmts = charge_blocks(plan, result, out,
                                              prog["geo"]["nreads"])
            sp.set(iterations=iterations, statements=stmts)

        reg = current_registry()
        reg.inc("engine.codegen.runs")
        reg.inc("engine.codegen.blocks", len(plan.blocks))
        reg.inc("engine.codegen.iterations", iterations)
