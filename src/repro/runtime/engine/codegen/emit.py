"""Source emission for per-(plan, geometry) specialized kernels.

The shared statement lowering (:mod:`repro.runtime.engine.lowering`;
parity rules and the table of targets in DESIGN.md, "Kernel lowering")
aimed at *flat* Python-list grids whose slot arithmetic was folded at
emit time by :func:`~repro.runtime.engine.codegen.geometry.flat_affine`.
No ownership checks: the engine only runs these kernels under the
communication audit's zero-cross-access certificate.

:func:`emit_rect_kernel` is the shape for uniform dense rectangular
blocks (literal ``range`` loops); :func:`list_target` streams recorded
iteration tuples through the shared per-iteration emitter and carries
``live`` filtering and per-block counts.  Kernel keys hash the *inputs*
of emission, never the emitted text, so a warm process can address the
on-disk cache without emitting anything.
"""

from __future__ import annotations

import hashlib
from typing import Mapping, Optional

from repro.lang.ast import ArrayRef, Assign, LoopNest
from repro.lang.fingerprint import nest_canonical_form
from repro.runtime.engine.codegen.geometry import flat_affine
from repro.runtime.engine.lowering import (
    KernelTarget,
    sum_src,
    term_src,
    value_indices,
    value_src,
)
from repro.runtime.layout import GridSpec

KERNEL_NAME = "_cg_kernel"

#: Bump when the emitted source's shape or argument protocol changes;
#: part of every key so stale disk entries can never be attached.
#: ``cg2``: rect kernels bind loop-invariant slot and stamp terms at the
#: loop level where they are constant.  The list kernel's source is what
#: ``cg1`` wrote, so its entries on disk stay addressable.
_VERSION = "cg2"
_LIST_VERSION = "cg1"


def content_key(*parts: str) -> str:
    """sha256 over NUL-terminated parts (the on-disk cache's key form)."""
    h = hashlib.sha256()
    for part in parts:
        h.update(part.encode())
        h.update(b"\x00")
    return h.hexdigest()


def kernel_key(mode: str, nest: LoopNest, scalars: Mapping[str, float],
               specs: Mapping[str, GridSpec],
               rect_shape: Optional[tuple[int, ...]],
               rank_rect, has_live: bool) -> str:
    """Rename-invariant fingerprint + geometry digest of one kernel."""
    return content_key(
        _VERSION if mode == "rect" else _LIST_VERSION,
        mode,
        nest_canonical_form(nest),
        repr(tuple(sorted(scalars.items()))),
        repr(tuple((n, s.lo, s.shape, s.strides)
                   for n, s in sorted(specs.items()))),
        repr(rect_shape),
        repr(rank_rect),
        repr(bool(has_live)))


def _written(nest: LoopNest) -> list[str]:
    """Written arrays, in first-write order."""
    return list(dict.fromkeys(stmt.lhs.array for stmt in nest.statements))


class _Hoister:
    """Names the partial sums of slot and stamp affines, each bound at
    the outermost loop level where it is constant: ``_cJ`` once per
    block, ``_hJ`` right under the ``for`` of the last offset it adds.
    Integer arithmetic only, so which slot is read, written or stamped
    -- and with what -- cannot change."""

    def __init__(self, loop_dims: list[int]) -> None:
        self.names: dict[tuple, str] = {}
        self.block_lines: list[str] = []
        self.level_lines: dict[int, list[str]] = {k: [] for k in loop_dims}
        self.inner = loop_dims[-1] if loop_dims else None

    def bind(self, prefix: str, key: tuple, src: str,
             lines: list[str]) -> str:
        """The name ``src`` is bound to in ``lines`` (one per ``key``)."""
        name = self.names.get(key)
        if name is None:
            name = self.names[key] = f"{prefix}{len(lines)}"
            lines.append(f"{name} = {src}")
        return name

    def chain(self, base: str, terms: list[tuple[int, int]],
              const: int = 0) -> str:
        """Source, in the innermost body, of ``base + sum(coeff * _o<k>)
        + const`` over ``terms = [(k, coeff), ...]`` in nesting order;
        just a name when the innermost offset is not among them."""
        acc = base
        for k, coeff in terms:
            src = sum_src([acc, term_src(coeff, f"_o{k}")])
            if k == self.inner:
                return sum_src([src], const)
            acc = self.bind(f"_h{k}_", (acc, k, coeff), src,
                            self.level_lines[k])
        return sum_src([acc], const)


# ---------------------------------------------------------------------------
# rect kernel: uniform dense lexicographic blocks
# ---------------------------------------------------------------------------

def emit_rect_kernel(nest: LoopNest, scalars: Mapping[str, float],
                     specs: Mapping[str, GridSpec],
                     shape: tuple[int, ...], rank_rect) -> str:
    """``fn(_blocks, _g, _s)`` with literal loop extents.

    ``_blocks`` is a list of ``(base_0..base_{d-1}, rank_base)`` where
    ``rank_base`` is the block base point's sequential rank already
    scaled by the statement count; ``_g``/``_s`` map array name to the
    flat value / write-stamp lists.
    """
    indices = nest.indices
    depth = nest.depth
    nstmts = len(nest.statements)
    names = nest.array_names()
    written = _written(nest)
    gvar = {n: f"_g_{n}" for n in names}
    svar = {n: f"_s_{n}" for n in written}
    loop_dims = [k for k in range(depth) if shape[k] > 1]
    used_vals = value_indices(nest)
    hoist = _Hoister(loop_dims)
    rank_los, rank_strides = rank_rect

    def slot_src(ref: ArrayRef) -> str:
        coeffs, const = flat_affine(ref, indices, specs[ref.array])
        base = hoist.bind(
            "_c", (ref.array, coeffs, const),
            sum_src([term_src(coeffs[k], f"_b{k}")
                      for k in range(depth) if coeffs[k]], const),
            hoist.block_lines)
        return hoist.chain(base, [(k, coeffs[k])
                                  for k in loop_dims if coeffs[k]])

    def stamp_src(k: int) -> str:
        return hoist.chain("_rb", [(d, rank_strides[d] * nstmts)
                                   for d in loop_dims if rank_strides[d]], k)

    body: list[str] = []
    for k, stmt in enumerate(nest.statements):
        lhs_src = lhs_local = slot_src(stmt.lhs)
        if not lhs_src.isidentifier():  # it moves with the innermost loop
            lhs_local = f"_w{k}"
            body.append(f"{lhs_local} = {lhs_src}")

        def read_src(ref: ArrayRef, _arr=stmt.lhs.array, _src=lhs_src,
                     _local=lhs_local) -> str:
            src = slot_src(ref)
            if ref.array == _arr and src == _src:
                src = _local  # the accumulation read reuses the lhs slot
            return f"{gvar[ref.array]}[{src}]"

        val = value_src(stmt.rhs, indices, scalars, read_src)
        body.append(f"{gvar[stmt.lhs.array]}[{lhs_local}] = {val}")
        body.append(f"{svar[stmt.lhs.array]}[{lhs_local}] = {stamp_src(k)}")

    lines = [f"def {KERNEL_NAME}(_blocks, _g, _s):"]
    for n in names:
        lines.append(f"    {gvar[n]} = _g[{n!r}]")
    for n in written:
        lines.append(f"    {svar[n]} = _s[{n!r}]")
    lines.append("    for _b in _blocks:")
    unpack = ", ".join([f"_b{k}" for k in range(depth)] + ["_rb"])
    lines.append(f"        {unpack} = _b")
    for k in sorted(used_vals):
        if k not in loop_dims:
            lines.append(f"        _f{k} = float(_b{k})")
    for pre in hoist.block_lines:
        lines.append(f"        {pre}")
    ind = "        "
    for k in loop_dims:
        lines.append(f"{ind}for _o{k} in range({shape[k]}):")
        ind += "    "
        if k in used_vals:
            lines.append(f"{ind}_f{k} = float(_b{k} + _o{k})")
        for pre in hoist.level_lines[k]:
            lines.append(ind + pre)
    for b in body:
        lines.append(ind + b)
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# list kernel target: recorded iteration tuples (live filtering, ragged blocks)
# ---------------------------------------------------------------------------

def list_target(nest: LoopNest,
                specs: Mapping[str, GridSpec]) -> KernelTarget:
    """Flat value lists ``_g[array]`` and stamp lists ``_s[array]``
    shared by all blocks, every slot an emit-time-folded affine of the
    loop indices; no miss handling (certificate)."""
    indices = nest.indices

    def slot_src(ref: ArrayRef) -> str:
        coeffs, const = flat_affine(ref, indices, specs[ref.array])
        return sum_src([term_src(a, f"i{k}")
                        for k, a in enumerate(coeffs) if a], const)

    def read_src(ref: ArrayRef) -> str:
        return f"_g_{ref.array}[{slot_src(ref)}]"

    def write_lines(k: int, stmt: Assign, val: str) -> list[str]:
        arr = stmt.lhs.array
        return [f"_w{k} = {slot_src(stmt.lhs)}",
                f"_g_{arr}[_w{k}] = {val}",
                f"_s_{arr}[_w{k}] = _r + {k}"]

    return KernelTarget(
        KERNEL_NAME, "_g, _s",
        [f"_g_{n} = _g[{n!r}]" for n in nest.array_names()]
        + [f"_s_{n} = _s[{n!r}]" for n in _written(nest)],
        read_src, write_lines, per_block=True)
