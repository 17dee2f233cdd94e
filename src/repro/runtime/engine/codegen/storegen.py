"""Codegen store kernels: specialized source for blockstore workers.

The block store lays every (array, block) region out in sorted
coordinate order; when a region fills its bounding box that *is*
row-major order, so a reference folds into block-local flat arithmetic
``const + sum(coeff_k * i_k)``.  The constants vary per block and
travel as a per-block argument tuple (:func:`block_rect_args`), so the
kernel *source* depends only on the nest, scalars, liveness, rank
strides and ``Q``: one kernel per plan shape, every block reuses it.
The source is the shared block-kernel lowering
(:mod:`repro.runtime.engine.lowering`; DESIGN.md, "Kernel lowering")
aimed at the private block buffers by :func:`rect_target`.

The parent prepares (emits, persists) the kernel once per run, only
under the audit's zero-cross-access certificate, and ships its cache
key in the store descriptor; workers attach by key (memory -> disk ->
re-emit).  DESIGN.md, "Store kernels", has the protocol.
"""

from __future__ import annotations

from typing import Mapping, Optional

from repro.lang.ast import ArrayRef, Assign, LoopNest
from repro.lang.fingerprint import nest_canonical_form
from repro.runtime.engine.codegen.emit import content_key
from repro.runtime.engine.codegen.geometry import (
    CodegenUnsupported,
    ref_affine,
)
from repro.runtime.engine.lowering import (
    KERNEL_CACHE,
    KernelTarget,
    emit_iteration_kernel,
)
from repro.runtime.layout import c_strides

STORE_KERNEL_NAME = "_cg_store_kernel"

#: ``cgs2``: the kernel is the paper's loop L' over block points
_VERSION = "cgs2"


def ref_table(nest: LoopNest) -> list[tuple[str, tuple, tuple]]:
    """Deduplicated references: (array, coeff matrix, const vector).

    Emission and the worker-side argument builder share this exact
    enumeration order -- it defines the layout of the per-block
    argument tuple.  Cached per nest: plans with thousands of tiny
    blocks would otherwise re-derive the affines per block.
    """
    hit = KERNEL_CACHE.get(("refs", nest))
    if hit is not None:
        return hit
    out = list(dict.fromkeys(
        (ref.array, *ref_affine(ref, nest.indices))
        for stmt in nest.statements
        for ref in [stmt.lhs, *stmt.rhs.array_refs()]))
    KERNEL_CACHE.put(("refs", nest), out)
    return out


def _used_dims(matrix: tuple) -> list[int]:
    """Loop-index positions with any nonzero coefficient in the ref."""
    if not matrix:
        return []
    return [k for k in range(len(matrix[0]))
            if any(row[k] for row in matrix)]


def store_kernel_key(nest: LoopNest, scalars: Mapping[str, float],
                     has_live: bool, rank_rect, q_rows) -> str:
    return content_key(_VERSION, nest_canonical_form(nest),
                       repr(tuple(sorted(scalars.items()))),
                       repr(bool(has_live)), repr(rank_rect), repr(q_rows))


def rect_target(nest: LoopNest) -> KernelTarget:
    """One flat private buffer per block (``_vals``/``_stamps``), every
    slot ``_cJ + sum(_aJ_k * i_k)`` with the coefficients unpacked from
    the per-block ``_rect`` tuple: for each entry of :func:`ref_table`,
    its block-local constant followed by one coefficient per used loop
    dimension.  No miss handling (certificate)."""
    indices = nest.indices
    refs = ref_table(nest)
    slot_of: dict[tuple, int] = {key: j for j, key in enumerate(refs)}

    unpack: list[str] = []
    for j, (_, matrix, _) in enumerate(refs):
        unpack.append(f"_c{j}")
        unpack += [f"_a{j}_{k}" for k in _used_dims(matrix)]

    def slot_src(ref: ArrayRef, affine) -> str:
        matrix, consts = ref_affine(ref, indices)
        j = slot_of[(ref.array, matrix, consts)]
        used = _used_dims(matrix)
        return affine([f"_a{j}_{k}" if k in used else 0
                       for k in range(len(indices))], f"_c{j}")

    def read_src(ref: ArrayRef, affine) -> str:
        return f"float(_vals[{slot_src(ref, affine)}])"

    def write_lines(k: int, stmt: Assign, val: str, stamp: str,
                    affine) -> list[str]:
        return [f"_w = {slot_src(stmt.lhs, affine)}",
                f"_vals[_w] = {val}",
                f"_stamps[_w] = {stamp}"]

    return KernelTarget(
        STORE_KERNEL_NAME, "_rect, _vals, _stamps",
        [f"{', '.join(unpack)}{',' if len(unpack) == 1 else ''} = _rect"],
        read_src, write_lines)


# ---------------------------------------------------------------------------
# region rectangles and per-block arguments
# ---------------------------------------------------------------------------

def regions_rectangular(layout) -> bool:
    """True iff every (array, block) region fills its bounding box
    (sorted order over a full box is row-major order)."""
    for key, (off, cnt) in layout.regions.items():
        if not cnt:
            continue
        order = layout.order[key]
        lo, hi = order[0], order[-1]
        size = 1
        for l, h in zip(lo, hi):
            size *= h - l + 1
        if size != cnt:
            return False
    return True


def block_rect_args(layout, nest: LoopNest, bindex: int) -> tuple:
    """The per-block ``_rect`` tuple, block-local (matches the private
    buffer the worker computes into)."""
    refs = ref_table(nest)
    info: dict[str, tuple] = {}
    loff = 0
    for name in layout.arrays:
        _, cnt = layout.regions[(name, bindex)]
        if cnt:
            order = layout.order[(name, bindex)]
            lo, hi = order[0], order[-1]
            strides = c_strides(tuple(h - l + 1 for l, h in zip(lo, hi)))
            info[name] = (lo, strides, loff)
        else:
            info[name] = (None, None, loff)
        loff += cnt
    args: list[int] = []
    for array, matrix, consts in refs:
        lo, strides, aoff = info[array]
        if lo is None:
            # empty region: the certificate guarantees no access ever
            # evaluates this ref's slot in this block
            args += [0] + [0] * len(_used_dims(matrix))
            continue
        const = aoff
        coeffs = [0] * (len(matrix[0]) if matrix else 0)
        for d, (row, c) in enumerate(zip(matrix, consts)):
            const += (c - lo[d]) * strides[d]
            for k, a in enumerate(row):
                coeffs[k] += a * strides[d]
        args += [const] + [coeffs[k] for k in _used_dims(matrix)]
    return tuple(args)


def prepare_store_kernel(plan, scalars: Mapping[str, float]) -> Optional[str]:
    """Parent-side: emit + persist the codegen store kernel, or None.

    Returns the cache key to ship in the descriptor, or None when the
    plan's regions are not rectangular, a reference cannot be lowered,
    or the communication audit refuses the certificate.
    """
    from repro.obs.metrics import current_registry
    from repro.runtime.blockstore.layout import layout_for
    from repro.runtime.engine.codegen.engine import _certified, _geometry_for

    try:
        layout = layout_for(plan)
        if not regions_rectangular(layout):
            raise CodegenUnsupported("store regions are not rectangular")
        ref_table(plan.nest)
        geo = _geometry_for(plan)
    except CodegenUnsupported:
        current_registry().inc("engine.codegen.store.unsupported")
        return None
    if not _certified(plan, geo):
        current_registry().inc("engine.codegen.store.uncertified")
        return None
    key = store_kernel_key(plan.nest, scalars, plan.live is not None,
                           plan.model.space.rank_strides(),
                           plan.psi.kernel_rows())
    attach_store_kernel(key, plan, scalars)
    return key


def attach_store_kernel(key: str, plan, scalars: Mapping[str, float]):
    """Worker-side: the raw kernel for ``key`` (memory -> disk -> emit)."""
    from repro.runtime.engine.codegen.engine import load_kernel

    nest = plan.nest
    has_live = plan.live is not None
    rank_rect = plan.model.space.rank_strides()
    return load_kernel(key,
                       lambda: emit_iteration_kernel(
                           nest, scalars, rect_target(nest), rank_rect,
                           has_live, plan.psi),
                       label="store", fn_name=STORE_KERNEL_NAME)
