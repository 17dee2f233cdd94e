"""The codegen engine: specialized source per (plan, geometry).

The top engine tier.  ``run_blocks`` builds (and caches, per plan) a
*program*: the plan's geometry, its communication-audit certificate,
the per-block argument tuples, the seed/scatter coordinate tables and
the compiled kernel itself.  Kernels come from a three-level cache:

1. in-process, keyed by the rename-invariant fingerprint + geometry
   digest (``engine.codegen.cache.memory.hit``);
2. the on-disk :mod:`~repro.runtime.engine.codegen.diskcache` -- a
   warm process unmarshals the stored code object and skips emit *and*
   compile (zero ``engine.codegen.emit``/``compile`` spans);
3. fresh emission (span ``engine.codegen.emit``) and compilation (span
   ``engine.codegen.compile``), persisted for the next process.

Anything the specializer cannot take (non-affine subscripts, written
replicas, oversized grids, a failed certificate) delegates to the
compiled tier -- in particular a plan with *actual* cross-block
accesses is never run unchecked, so a sabotaged plan raises the very
same :class:`~repro.machine.memory.RemoteAccessError` the interpreter
raises first, through the compiled tier's per-access slow path.

``REPRO_CODEGEN_CHECKS=1`` runs the guarded kernel variant instead:
every access is verified against the block's owned-slot sets, which is
the debugging escape hatch for distrusted certificates.
"""

from __future__ import annotations

import marshal
import os
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
from repro.runtime.engine.compiled import _reads_per_statement

#: Set to 1 to run the guarded (ownership-checked) kernel variant.
CHECKS_ENV_VAR = "REPRO_CODEGEN_CHECKS"

#: kernel key -> compiled function (the in-process tier of the cache)
_KERNELS: dict[str, Callable] = {}

#: id(plan) -> (weakref, geometry dict); plan-lifetime side-car
_GEOMETRY: dict[int, tuple] = {}

#: (id(plan), scalars key, checks) -> program dict
_PROGRAMS: dict[tuple, dict] = {}


def checks_enabled() -> bool:
    return os.environ.get(CHECKS_ENV_VAR, "").strip() not in ("", "0")


def load_kernel(key: str, emit_fn: Callable[[], str],
                label: str = "kernel",
                fn_name: Optional[str] = None) -> Callable:
    """The kernel for ``key`` through the memory -> disk -> emit chain."""
    from repro.obs.metrics import current_registry
    from repro.obs.trace import current_tracer

    reg = current_registry()
    fn = _KERNELS.get(key)
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
    _KERNELS[key] = fn
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
        weakref.finalize(plan, _release_plan, key)
        _GEOMETRY[key] = (ref, geo)
    except TypeError:  # pragma: no cover - plans are always weakref-able
        pass
    try:
        geo.update(_build_geometry(plan))
    except CodegenUnsupported as exc:
        geo["unsupported"] = exc.reason
        raise
    return geo


def _release_plan(key: int) -> None:
    _GEOMETRY.pop(key, None)
    for pkey in [k for k in _PROGRAMS if k[0] == key]:
        del _PROGRAMS[pkey]


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

    # coords -> flat slot per array, shared by seed and scatter tables
    flats: dict[str, dict] = {}
    for name, spec in specs.items():
        if not spec.size:
            flats[name] = {}
            continue
        lo, strides = spec.lo, spec.strides

        def flat(c, lo=lo, strides=strides):
            s = 0
            for d, v in enumerate(c):
                s += (v - lo[d]) * strides[d]
            return s

        flats[name] = flat

    seed: list[tuple[str, int, list]] = []
    for name, spec in specs.items():
        flat = flats[name]
        seen: set = set()
        for db in plan.data_blocks[name]:
            pairs = [(c, flat(c)) for c in db.elements if c not in seen]
            if pairs:
                seen.update(c for c, _ in pairs)
                seed.append((name, db.block_index, pairs))
    scatter: list[tuple[int, str, list]] = []
    for b in plan.blocks:
        for name in written:
            flat = flats[name]
            db = plan.data_blocks[name][b.index]
            if db.elements:
                scatter.append((b.index, name,
                                [(c, flat(c)) for c in db.elements]))

    if rect is not None:
        args = [tuple(b.iterations[0])
                + (space.rank_of(b.iterations[0]) * nstmts,)
                for b in plan.blocks]
    else:
        args = [(b.index, b.iterations) for b in plan.blocks]

    own: Optional[list] = None  # built lazily, only for checked kernels
    return {
        "specs": specs,
        "rect": rect,
        "rank_rect": rank_rect,
        "args": args,
        "seed": seed,
        "scatter": scatter,
        "written": tuple(n for n in specs if n in written),
        "nreads": _reads_per_statement(nest),
        "nstmts": nstmts,
        "flats": flats,
        "own": own,
        "certified": None,  # resolved on first uncheck(ed) run
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


def _own_tables(plan, geo: dict) -> list:
    """Per-block ``{array: owned-slot frozenset}`` for checked kernels."""
    if geo["own"] is None:
        own = []
        for b in plan.blocks:
            per = {}
            for name in geo["specs"]:
                flat = geo["flats"][name]
                db = plan.data_blocks[name][b.index]
                per[name] = frozenset(flat(c) for c in db.elements)
            own.append((b.index, b.iterations, per))
        geo["own"] = own
    return geo["own"]


def program_for(plan, scalars: Mapping[str, float],
                checks: bool) -> dict:
    """The runnable program for (plan, scalars, checks) -- cached."""
    skey = tuple(sorted(scalars.items()))
    pkey = (id(plan), skey, checks)
    prog = _PROGRAMS.get(pkey)
    if prog is not None:
        return prog
    geo = _geometry_for(plan)
    nest = plan.nest
    has_live = plan.live is not None
    rect = geo["rect"] if not checks else None
    if rect is not None:
        mode = "rect"
        key = emit.kernel_key(mode, nest, scalars, geo["specs"], rect,
                              geo["rank_rect"], has_live)
        fn = load_kernel(
            key, lambda: emit.emit_rect_kernel(
                nest, scalars, geo["specs"], rect, geo["rank_rect"]))
    else:
        mode = "checked" if checks else "list"
        key = emit.kernel_key(mode, nest, scalars, geo["specs"], None,
                              geo["rank_rect"], has_live)
        fn = load_kernel(
            key, lambda: emit.emit_list_kernel(
                nest, scalars, geo["specs"], geo["rank_rect"], has_live,
                checks=checks))
    prog = {"mode": mode, "key": key, "fn": fn, "geo": geo}
    _PROGRAMS[pkey] = prog
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
                         scalars, strict) -> None:
        from repro.obs.metrics import current_registry
        from repro.obs.trace import current_tracer

        current_registry().inc("engine.codegen.delegated")
        current_tracer().event("engine.codegen.delegated",
                               category="engine", reason=reason)
        self.delegate().run_blocks(plan, memories, result, initial,
                                   scalars, strict=strict)

    def run_blocks(self, plan, memories, result, initial, scalars,
                   strict: bool = True) -> None:
        from repro.obs.metrics import current_registry
        from repro.obs.trace import current_tracer

        if not strict or not plan.blocks:
            self.delegate().run_blocks(plan, memories, result, initial,
                                       scalars, strict=strict)
            return
        checks = checks_enabled()
        try:
            prog = program_for(plan, dict(scalars), checks)
        except CodegenUnsupported as exc:
            self._delegate_blocks(exc.reason, plan, memories, result,
                                  initial, scalars, strict)
            return
        geo = prog["geo"]
        if not checks and not _certified(plan, geo):
            # actual cross-block accesses: never run unchecked -- the
            # compiled tier reproduces the interpreter's bookkeeping
            # and its first RemoteAccessError exactly
            self._delegate_blocks("certificate-failed", plan, memories,
                                  result, initial, scalars, strict)
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
            elif prog["mode"] == "checked":
                def viol(bindex, array, coords, is_write):
                    mem = memories[bindex]
                    mem.note_remote(is_write=is_write)
                    from repro.machine.memory import RemoteAccessError

                    raise RemoteAccessError(mem.pid, array, coords,
                                            is_write)

                out = prog["fn"](_own_tables(plan, geo), grids, stamps,
                                 live, space.rank_of, viol)
                stmts = self._apply_counts(out, plan, memories, result,
                                           live, nreads)
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
