"""The vectorized backend: numpy lock-step execution of all blocks.

Communication-freedom is what makes this legal: the plan's iteration
blocks share no written elements, so *interleaving* blocks cannot
change any value -- only the order of iterations *within* a block
matters.  This backend therefore advances every block one iteration per
"step", evaluating each statement once per step as a whole-array numpy
operation over all active blocks (lanes) at once.  The per-iteration
Python interpreter overhead (env dicts, AST recursion) is replaced by a
handful of vectorized gathers, elementwise float64 ops, and scatters
per step; total Python-level work drops from O(iterations x AST) to
O(steps x statements).

Bit-identity with the interpreter holds because

- numpy elementwise float64 arithmetic is the same IEEE-754 binary64
  arithmetic as Python floats, applied in the same expression-tree
  order (no reassociation, no FMA, no reductions);
- within each lane, iterations execute in the block's sequential
  order (step order == iteration order);
- across lanes, written elements are disjoint, so the interleaving
  cannot matter.

It runs on the run's flat store in place (:mod:`repro.runtime.layout`:
one dense list per array, as numpy arrays for the sweep).  The backend
refuses (and falls back to ``compiled``) when a written array has
replicated elements across data blocks, when a subscript is not
integral-affine, when the dense grids would be unreasonably large, or
when the memories are no longer untouched views of the store.  Remote
accesses -- the thing ``verify`` exists to
rule out -- are detected *up front*: access coordinates depend only on
the iteration sets, so every gather/scatter is checked against the
per-lane allocation masks before anything executes, and the first
violation in interpreter order raises the same
:class:`~repro.machine.memory.RemoteAccessError`.
"""

from __future__ import annotations

from itertools import chain
from typing import Mapping

from repro.lang.affine import NotAffineError, affine_of
from repro.lang.ast import ArrayRef, BinOp, Const, Expr, Name, UnaryOp
from repro.machine.memory import RemoteAccessError
from repro.runtime import numpy_compat as npc
from repro.runtime.engine.base import Engine
from repro.runtime.layout import Sidecar, in_place_store, layout_for

#: dense-grid size caps (elements); beyond these, fall back to compiled
_MAX_GRID = 1 << 22
_MAX_HOLD = 1 << 26


class _Unsupported(ValueError):
    """This plan cannot be vectorized; fall back to the compiled tier."""


def supports_plan(plan) -> bool:
    """Can the lock-step strategy run this plan?

    Written arrays must have no replicated elements (a replicated
    written element would need every copy updated in its own lane's
    order -- the duplicate-data strategy only replicates read-only
    arrays, so in practice this accepts those plans too).
    """
    try:
        _check_plan(plan)
        return True
    except _Unsupported:
        return False


def _check_plan(plan) -> None:
    if layout_for(plan).replicated:
        raise _Unsupported("a written array has replicated elements")
    indices = plan.nest.indices
    for stmt in plan.nest.statements:
        for ref in stmt.rhs.array_refs():
            if list(ref.array_refs())[1:]:
                raise _Unsupported("array read inside a subscript")
        for ref in [stmt.lhs] + list(stmt.rhs.array_refs()):
            for sub in ref.subscripts:
                try:
                    ae = affine_of(sub, indices)
                except NotAffineError as exc:
                    raise _Unsupported(str(exc)) from exc
                if not ae.is_integral():
                    raise _Unsupported(
                        f"non-integral subscript on {ref.array}")


class _Grid:
    """One array of the run's flat store as arrays, and who holds what."""

    __slots__ = ("lo", "shape", "strides", "vals", "stamps", "hold")

    def __init__(self, np, spec, values: list, hold):
        self.lo, self.shape, self.strides = spec.lo, spec.shape, spec.strides
        self.vals = np.array(values, dtype=np.float64)
        self.stamps = np.full(spec.size, -1, dtype=np.int64)
        self.hold = hold


def _lane_holds(np, layout, nlanes: int) -> dict:
    """array -> (nlanes, size) mask of the slots each lane's block holds."""
    holds = {}
    for name, spec in layout.specs.items():
        if not spec.size or spec.size > _MAX_GRID \
                or nlanes * spec.size > _MAX_HOLD:
            raise _Unsupported(f"no dense grid of {spec.size} elements")
        holds[name] = np.zeros((nlanes, spec.size), dtype=bool)
    for lane, (_, regions) in enumerate(layout.rows):
        for name, _, slots in regions:
            holds[name][lane, slots] = True
    return holds


def _flatten_coords(np, grid: _Grid, coord_arrays):
    """(clipped flat indices, in-bounds mask) for vectorized coords."""
    inb = None
    flat = None
    for co, lo, sh, stride in zip(coord_arrays, grid.lo, grid.shape,
                                  grid.strides):
        rel = co - lo
        ok = (rel >= 0) & (rel < sh)
        inb = ok if inb is None else (inb & ok)
        part = np.clip(rel, 0, sh - 1) * stride
        flat = part if flat is None else (flat + part)
    return flat, inb


def _coords_of(np, ref: ArrayRef, indices, iters):
    """Per-dimension int64 coordinate arrays of shape (nlanes, steps)."""
    out = []
    for sub in ref.subscripts:
        ae = affine_of(sub, indices)
        co = np.full(iters.shape[:2], int(ae.const), dtype=np.int64)
        for j, a in enumerate(ae.coeffs):
            a = int(a)
            if a:
                co = co + a * iters[:, :, j]
        out.append(co)
    return out


def _build_eval(np, expr: Expr, indices, iters_f, scalars, read_of):
    """A function ``(step, sel) -> float64 array`` over selected lanes,
    evaluating ``expr`` in exactly the interpreter's tree order."""
    if isinstance(expr, Const):
        c = np.float64(float(expr.value))
        return lambda s, sel: c
    if isinstance(expr, Name):
        if expr.ident in indices:
            d = indices.index(expr.ident)
            return lambda s, sel: iters_f[sel, s, d]
        if expr.ident in scalars:
            c = np.float64(float(scalars[expr.ident]))
            return lambda s, sel: c
        raise _Unsupported(f"unbound name {expr.ident!r}")
    if isinstance(expr, UnaryOp):
        f = _build_eval(np, expr.operand, indices, iters_f, scalars, read_of)
        return lambda s, sel: -f(s, sel)
    if isinstance(expr, BinOp):
        lf = _build_eval(np, expr.left, indices, iters_f, scalars, read_of)
        rf = _build_eval(np, expr.right, indices, iters_f, scalars, read_of)
        op = expr.op
        if op == "+":
            return lambda s, sel: lf(s, sel) + rf(s, sel)
        if op == "-":
            return lambda s, sel: lf(s, sel) - rf(s, sel)
        if op == "*":
            return lambda s, sel: lf(s, sel) * rf(s, sel)
        return lambda s, sel: lf(s, sel) / rf(s, sel)
    if isinstance(expr, ArrayRef):
        vals, flat = read_of(expr)
        return lambda s, sel: vals[flat[sel, s]]
    raise _Unsupported(f"cannot vectorize {expr!r}")


def _has_division(expr: Expr) -> bool:
    if isinstance(expr, BinOp):
        return (expr.op == "/" or _has_division(expr.left)
                or _has_division(expr.right))
    if isinstance(expr, UnaryOp):
        return _has_division(expr.operand)
    return False


def _build_geometry(plan):
    """Data-independent execution geometry for a plan (None when there
    is nothing to run).

    Everything here depends only on the plan's iteration blocks, live
    set and iteration space -- never on array values or on what the
    memories hold -- so repeat runs of the same plan (the common
    verify/benchmark pattern) skip straight to the sweep.  The lane
    hold masks join it per plan layout; grid values and the
    remote-access check are rebuilt on every run.
    """
    np = npc.np
    nest = plan.nest
    space = plan.model.space
    indices = nest.indices
    stmts = nest.statements
    nstmts = len(stmts)
    lanes = plan.blocks
    nlanes = len(lanes)
    if nlanes == 0:
        return None
    steps = max(len(b.iterations) for b in lanes)
    if steps == 0:
        return None
    depth = nest.depth

    # lane-major iteration table + active mask (one bulk conversion)
    counts = np.fromiter((len(b.iterations) for b in lanes), np.int64,
                         count=nlanes)
    total = int(counts.sum())
    all_iters = np.fromiter(
        chain.from_iterable(chain.from_iterable(b.iterations)
                            for b in lanes),
        np.int64, count=total * depth).reshape(-1, depth)
    lane_rep = np.repeat(np.arange(nlanes), counts)
    step_pos = np.arange(total) - \
        np.repeat(np.cumsum(counts) - counts, counts)
    iters = np.zeros((nlanes, steps, depth), dtype=np.int64)
    iters[lane_rep, step_pos, :] = all_iters
    active = np.zeros((nlanes, steps), dtype=bool)
    active[lane_rep, step_pos] = True
    iters_f = iters.astype(np.float64)

    # execution masks: active iterations restricted to live comps
    live = plan.live
    exec_mask = []
    for k in range(nstmts):
        if live is None:
            exec_mask.append(active)
        else:
            m = np.zeros((nlanes, steps), dtype=bool)
            for lane, b in enumerate(lanes):
                for s, it in enumerate(b.iterations):
                    if (k, it) in live:
                        m[lane, s] = True
            exec_mask.append(m)

    # write stamps: closed-form rank when the space is rectangular
    rect = space.rank_strides()
    if rect is not None:
        los, strides = rect
        rank = np.zeros((nlanes, steps), dtype=np.int64)
        for d, (lo, st) in enumerate(zip(los, strides)):
            if st:
                rank = rank + (iters[:, :, d] - lo) * st
    else:
        rank = np.zeros((nlanes, steps), dtype=np.int64)
        for lane, b in enumerate(lanes):
            for s, it in enumerate(b.iterations):
                rank[lane, s] = space.rank_of(it)

    # per-statement access coordinates, reads in the same pre-order
    # left-to-right traversal _build_eval uses
    stmt_plans = []
    for stmt in stmts:
        reads = [(ref.array, _coords_of(np, ref, indices, iters))
                 for ref in stmt.rhs.array_refs()]
        write = (stmt.lhs.array, _coords_of(np, stmt.lhs, indices, iters))
        stmt_plans.append((reads, write, _has_division(stmt.rhs)))

    any_exec = exec_mask[0]
    for k in range(1, nstmts):
        any_exec = any_exec | exec_mask[k]

    geom = {
        "np": np,
        "nlanes": nlanes,
        "steps": steps,
        "iters_f": iters_f,
        "exec_mask": exec_mask,
        "rank": rank,
        "stmts": stmt_plans,
        "nreads": [len(r) for r, _, _ in stmt_plans],
        "exec_counts": [m.sum(axis=1) for m in exec_mask],
        "active_counts": active.sum(axis=1),
        "executed_total": int(any_exec.sum()),
    }
    return geom


#: plan -> geometry, cached beside the plan; it holds arrays of the
#: numpy module it was built with (``numpy_compat.np`` is mutable)
_GEOMETRY = Sidecar(
    _build_geometry,
    valid=lambda plan, geom: geom is None or geom["np"] is npc.np)


class VectorizedEngine(Engine):
    """Lock-step whole-array execution of all blocks at once (numpy)."""

    name = "vectorized"
    fallback = "compiled"

    @classmethod
    def is_available(cls) -> bool:
        return npc.have_numpy()

    def run_blocks(self, plan, memories, result, initial, scalars) -> None:
        from repro.obs.trace import current_tracer

        np = npc.np
        if np is None:
            self.delegate().run_blocks(plan, memories, result, initial,
                                       scalars)
            return
        try:
            # all lanes advance together, so the whole sweep is one span
            # (per-block spans would all cover the same wall time);
            # lanes/steps attributes record the geometry instead
            with current_tracer().span(
                    "engine.lockstep", category="engine", backend=self.name,
                    blocks=len(plan.blocks)) as sp:
                self._run_lockstep(np, plan, memories, result, scalars)
                sp.set(executed_iterations=result.executed_iterations,
                       remote_accesses=result.remote_accesses,
                       statements=len(plan.nest.statements))
        except _Unsupported:
            self.delegate().run_blocks(plan, memories, result, initial,
                                       scalars)

    # -- the lock-step machine --------------------------------------------
    def _run_lockstep(self, np, plan, memories, result,
                      scalars: Mapping[str, float]) -> None:
        _check_plan(plan)
        geom = _GEOMETRY.get(plan)
        if geom is None:
            return
        nest = plan.nest
        stmts = nest.statements
        nstmts = len(stmts)
        lanes = plan.blocks
        nlanes = geom["nlanes"]
        steps = geom["steps"]
        iters_f = geom["iters_f"]
        exec_mask = geom["exec_mask"]
        rank = geom["rank"]
        live = plan.live

        # the dense grids are the run's flat store, in place: one list
        # per array shared by all lanes (written arrays are partitioned,
        # so a replica is never written).  Which slots a lane holds
        # depends only on the layout, and is cached with it.
        store = in_place_store(result, plan, memories)
        if store is None:
            raise _Unsupported("memories are not views of the run's store")
        layout = store.layout
        if geom.get("layout") is not layout:
            geom["holds"] = _lane_holds(np, layout, nlanes)
            geom["layout"] = layout
        grids = {name: _Grid(np, layout.specs[name], store.grids[name],
                             geom["holds"][name])
                 for name in nest.array_names()}

        # per-statement access plans (+ up-front remote-access check:
        # access coordinates are data-independent, so every gather and
        # scatter can be validated against the allocation masks before
        # anything executes)
        lane_idx = np.arange(nlanes)[:, None]
        violation = None  # (lane, step, stmt, refpos, array, CO)

        def check(k, refpos, array, co, flat, inb):
            nonlocal violation
            bad = exec_mask[k] & ~(inb & grids[array].hold[lane_idx, flat])
            if bad.any():
                first = int(np.argmax(bad))
                cand = divmod(first, steps) + (k, refpos, array, co)
                if violation is None or cand[:4] < violation[:4]:
                    violation = cand

        compute = []
        for k, (reads, (warray, wco), divides) in enumerate(geom["stmts"]):
            read_flats = []
            for p, (array, co) in enumerate(reads):
                flat, inb = _flatten_coords(np, grids[array], co)
                check(k, p, array, co, flat, inb)
                read_flats.append((grids[array].vals, flat))
            wflat, winb = _flatten_coords(np, grids[warray], wco)
            check(k, len(reads), warray, wco, wflat, winb)
            pending = iter(read_flats)
            fn = _build_eval(np, stmts[k].rhs, nest.indices, iters_f,
                             scalars, lambda ref: next(pending))
            compute.append((fn, grids[warray], wflat, divides))

        if violation is not None:
            lane, s, k, refpos, array, co = violation
            mem = memories[lanes[lane].index]
            coords = tuple(int(c[lane, s]) for c in co)
            is_write = refpos == geom["nreads"][k]
            mem.note_remote(is_write=is_write)
            raise RemoteAccessError(mem.pid, array, coords,
                                    is_write=is_write)

        # the lock-step sweep
        for s in range(steps):
            for k in range(nstmts):
                sel = np.nonzero(exec_mask[k][:, s])[0]
                if sel.size == 0:
                    continue
                fn, grid, wflat, divides = compute[k]
                if divides:
                    with np.errstate(divide="raise", invalid="raise"):
                        try:
                            value = fn(s, sel)
                        except FloatingPointError:
                            raise ZeroDivisionError("float division by zero") \
                                from None
                else:
                    value = fn(s, sel)
                wf = wflat[sel, s]
                grid.vals[wf] = value
                grid.stamps[wf] = rank[sel, s] * nstmts + k

        # values and stamps back into the store, counters to the memories
        for name in layout.written:
            store.grids[name][:] = grids[name].vals.tolist()
        store.stamps = {name: grids[name].stamps.tolist()
                        for name in layout.written}
        exec_counts = geom["exec_counts"]
        active_counts = geom["active_counts"]
        for lane, b in enumerate(lanes):
            mem = memories[b.index]
            for k in range(nstmts):
                n = int(exec_counts[k][lane])
                mem.writes += n
                mem.reads += n * geom["nreads"][k]
                if live is not None:
                    result.skipped_computations += \
                        int(active_counts[lane]) - n
        result.executed_iterations += geom["executed_total"]
