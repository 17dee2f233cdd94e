"""Source emission for per-(plan, geometry) specialized kernels.

The shared block-kernel emitter (:mod:`repro.runtime.engine.lowering`;
parity rules and the table of targets in DESIGN.md, "Kernel lowering")
aimed by :func:`list_target` at *flat* Python-list grids whose slot
arithmetic is folded at emit time by
:func:`~repro.runtime.engine.codegen.geometry.flat_affine`.  No
ownership checks: the engine only runs these kernels under the
communication audit's zero-cross-access certificate.  Kernel keys hash
the *inputs* of emission, never the emitted text, so a warm process can
address the on-disk cache without emitting anything.
"""

from __future__ import annotations

import hashlib
from typing import Mapping

from repro.lang.ast import ArrayRef, Assign, LoopNest
from repro.lang.fingerprint import nest_canonical_form
from repro.runtime.engine.codegen.geometry import flat_affine
from repro.runtime.engine.lowering import KernelTarget
from repro.runtime.layout import GridSpec

KERNEL_NAME = "_cg_kernel"

#: Bump when the emitted source's shape or argument protocol changes;
#: part of every key so stale disk entries can never be attached.
#: ``cg3``: every kernel is the paper's loop L' over block points.
_VERSION = "cg3"


def content_key(*parts: str) -> str:
    """sha256 over NUL-terminated parts (the on-disk cache's key form)."""
    h = hashlib.sha256()
    for part in parts:
        h.update(part.encode())
        h.update(b"\x00")
    return h.hexdigest()


def kernel_key(nest: LoopNest, scalars: Mapping[str, float],
               specs: Mapping[str, GridSpec], q_rows, rank_rect,
               has_live: bool) -> str:
    """Rename-invariant fingerprint + geometry digest of one kernel."""
    return content_key(
        _VERSION,
        nest_canonical_form(nest),
        repr(tuple(sorted(scalars.items()))),
        repr(tuple((n, s.lo, s.shape, s.strides)
                   for n, s in sorted(specs.items()))),
        repr(q_rows),
        repr(rank_rect),
        repr(bool(has_live)))


def _written(nest: LoopNest) -> list[str]:
    """Written arrays, in first-write order."""
    return list(dict.fromkeys(stmt.lhs.array for stmt in nest.statements))


def list_target(nest: LoopNest,
                specs: Mapping[str, GridSpec]) -> KernelTarget:
    """Flat value lists ``_g[array]`` and stamp lists ``_s[array]``
    shared by all blocks, every slot an emit-time-folded affine of the
    loop indices; no miss handling (certificate)."""
    indices = nest.indices

    def slot_src(ref: ArrayRef, affine) -> str:
        return affine(*flat_affine(ref, indices, specs[ref.array]))

    def read_src(ref: ArrayRef, affine) -> str:
        return f"_g_{ref.array}[{slot_src(ref, affine)}]"

    def write_lines(k: int, stmt: Assign, val: str, stamp: str,
                    affine) -> list[str]:
        arr = stmt.lhs.array
        slot = slot_src(stmt.lhs, affine)
        bind = []
        if not slot.isidentifier():  # it moves with the innermost loop
            bind, slot = [f"_w{k} = {slot}"], f"_w{k}"
        return bind + [f"_g_{arr}[{slot}] = {val}",
                       f"_s_{arr}[{slot}] = {stamp}"]

    return KernelTarget(
        KERNEL_NAME, "_g, _s",
        [f"_g_{n} = _g[{n!r}]" for n in nest.array_names()]
        + [f"_s_{n} = _s[{n!r}]" for n in _written(nest)],
        read_src, write_lines)
