"""The codegen engine: specialized source per (plan, geometry).

The top engine tier.  ``run_blocks`` builds (and caches, per plan) a
*program*: the plan's geometry, its communication-audit certificate,
the per-block argument tuples, the seed/scatter coordinate tables and
the compiled kernel itself.  :func:`load_kernel` walks three levels
by content key: the engines' bounded in-process LRU
(``engine.codegen.cache.memory.hit``), the on-disk
:mod:`~repro.runtime.engine.codegen.diskcache` (a warm process
unmarshals the code object: zero ``engine.codegen.emit``/``compile``
spans), then fresh emission + compilation, persisted.

Anything the specializer cannot take (non-affine subscripts, written
replicas, oversized grids, a failed certificate) delegates to the
compiled tier -- a plan with *actual* cross-block accesses is never
run unchecked, so a sabotaged plan raises the interpreter's first
:class:`~repro.machine.memory.RemoteAccessError` through the compiled
tier's per-access slow path.  For a run with every access checked ask
for ``--backend compiled`` (or ``interp``).
"""

from __future__ import annotations

import marshal
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
    rect_block_shape,
)
from repro.runtime.engine.lowering import (
    KERNEL_CACHE,
    emit_iteration_kernel,
    reads_per_statement,
)

#: id(plan) -> (weakref, geometry dict); plan-lifetime side-car, which
#: also holds the plan's programs (one per scalar binding)
_GEOMETRY: dict[int, tuple] = {}


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

def _geometry_for(plan) -> dict:
    """Geometry, block-argument and seed/scatter tables (plan-cached).

    Raises :class:`CodegenUnsupported` when the plan cannot be
    specialized; the *negative* outcome is cached too (re-raising is
    cheap, re-deriving it is not).
    """
    import weakref

    key = id(plan)
    hit = _GEOMETRY.get(key)
    if hit is not None and hit[0]() is plan:
        geo = hit[1]
        if "unsupported" in geo:
            raise CodegenUnsupported(geo["unsupported"])
        return geo
    geo: dict = {}
    try:
        ref = weakref.ref(plan)
        weakref.finalize(plan, _GEOMETRY.pop, key, None)
        _GEOMETRY[key] = (ref, geo)
    except TypeError:  # pragma: no cover - plans are always weakref-able
        pass
    try:
        geo.update(_build_geometry(plan))
    except CodegenUnsupported as exc:
        geo["unsupported"] = exc.reason
        raise
    return geo


def _build_geometry(plan) -> dict:
    nest = plan.nest
    space = plan.model.space
    written = check_written_partitioned(plan)
    specs = grid_specs(plan)
    check_nest(nest, specs)
    rank_rect = space.rank_strides()
    rect = None
    if plan.live is None and rank_rect is not None:
        rect = rect_block_shape(plan)
    nstmts = len(nest.statements)

    def flat_pairs(name, coords):
        """(coords, flat slot) pairs, shared by seed and scatter tables"""
        lo, strides = specs[name].lo, specs[name].strides
        pairs = []
        for c in coords:
            s = 0
            for d, v in enumerate(c):
                s += (v - lo[d]) * strides[d]
            pairs.append((c, s))
        return pairs

    seed: list[tuple[str, int, list]] = []
    for name in specs:
        seen: set = set()
        for db in plan.data_blocks[name]:
            pairs = flat_pairs(name, [c for c in db.elements
                                      if c not in seen])
            if pairs:
                seen.update(c for c, _ in pairs)
                seed.append((name, db.block_index, pairs))
    scatter: list[tuple[int, str, list]] = []
    for b in plan.blocks:
        for name in written:
            db = plan.data_blocks[name][b.index]
            if db.elements:
                scatter.append((b.index, name,
                                flat_pairs(name, db.elements)))

    if rect is not None:
        args = [tuple(b.iterations[0])
                + (space.rank_of(b.iterations[0]) * nstmts,)
                for b in plan.blocks]
    else:
        args = [(b.index, b.iterations) for b in plan.blocks]

    return {
        "specs": specs,
        "rect": rect,
        "rank_rect": rank_rect,
        "args": args,
        "seed": seed,
        "scatter": scatter,
        "written": tuple(n for n in specs if n in written),
        "nreads": reads_per_statement(nest),
        "nstmts": nstmts,
        "certified": None,  # resolved on first run
        "programs": {},
    }


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
    nest = plan.nest
    has_live = plan.live is not None
    specs, rect, rank_rect = geo["specs"], geo["rect"], geo["rank_rect"]
    mode = "rect" if rect is not None else "list"
    key = emit.kernel_key(mode, nest, scalars, specs, rect, rank_rect,
                          has_live)
    if rect is not None:
        fn = load_kernel(key, lambda: emit.emit_rect_kernel(
            nest, scalars, specs, rect, rank_rect))
    else:
        fn = load_kernel(key, lambda: emit_iteration_kernel(
            nest, scalars, emit.list_target(nest, specs), rank_rect,
            has_live))
    prog = geo["programs"][skey] = {"mode": mode, "key": key, "fn": fn,
                                    "geo": geo}
    return prog


# ---------------------------------------------------------------------------
# the engine
# ---------------------------------------------------------------------------

class CodegenEngine(Engine):
    """Per-plan specialized kernels over flat grids, checks elided
    under the communication audit's certificate."""

    name = "codegen"
    fallback = "compiled"

    def run_nest(self, nest, arrays, scalars, space) -> None:
        # sequential whole-nest runs are already statement-specialized
        # by the compiled tier; the codegen win is per-block execution
        self.delegate().run_nest(nest, arrays, scalars, space)

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

        tracer = current_tracer()
        reg = current_registry()
        specs = geo["specs"]
        grids = {n: [0.0] * s.size for n, s in specs.items()}
        stamps = {n: [-1] * specs[n].size for n in geo["written"]}
        for name, bindex, pairs in geo["seed"]:
            vals = memories[bindex].values[name]
            g = grids[name]
            for c, f in pairs:
                g[f] = vals[c]

        live = plan.live
        space = plan.model.space
        nreads = geo["nreads"]
        nstmts = geo["nstmts"]
        total_iters = sum(len(b.iterations) for b in plan.blocks)
        with tracer.span("engine.codegen.exec", category="engine",
                         backend=self.name, mode=prog["mode"],
                         blocks=len(plan.blocks),
                         iterations=total_iters) as sp:
            if prog["mode"] == "rect":
                prog["fn"](geo["args"], grids, stamps)
                result.executed_iterations += total_iters
                for b in plan.blocks:
                    mem = memories[b.index]
                    n = len(b.iterations)
                    mem.writes += n * nstmts
                    mem.reads += n * sum(nreads)
                stmts = total_iters * nstmts
            else:
                out = prog["fn"](geo["args"], grids, stamps, live,
                                 space.rank_of)
                stmts = self._apply_counts(out, plan, memories, result,
                                           live, nreads)
            sp.set(statements=stmts)

        write_stamps = result.write_stamps
        for bindex, name, pairs in geo["scatter"]:
            st = stamps[name]
            g = grids[name]
            vals = memories[bindex].values[name]
            for c, f in pairs:
                s = st[f]
                if s >= 0:
                    vals[c] = g[f]
                    write_stamps[(bindex, name, c)] = s
        reg.inc("engine.codegen.runs")
        reg.inc("engine.codegen.blocks", len(plan.blocks))
        reg.inc("engine.codegen.iterations", total_iters)

    @staticmethod
    def _apply_counts(out, plan, memories, result, live, nreads) -> int:
        blocks = {b.index: b for b in plan.blocks}
        stmts = 0
        for bindex, executed, counts in out:
            mem = memories[bindex]
            result.executed_iterations += executed
            for k, n in enumerate(counts):
                mem.writes += n
                mem.reads += n * nreads[k]
                stmts += n
                if live is not None:
                    result.skipped_computations += \
                        len(blocks[bindex].iterations) - n
        return stmts
