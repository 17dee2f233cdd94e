"""The canonical segment layout: one flat region per (array, block).

Every (array, block) data block gets a contiguous ``(offset, count)``
region in one flat ``float64`` values buffer (and a parallel ``int64``
write-stamp buffer), laid out array-major in sorted array-name order,
block-index order within an array, and **sorted element order** within
a region.  Sorting matters: ``DataBlock.elements`` is a frozenset, and
frozenset iteration order is not stable across processes (hash
randomization), so the parent and every worker must derive the very
same coords->slot mapping independently -- sorted coordinate tuples are
the canonical order both sides agree on.

Duplicate-data plans replicate elements across blocks; each replica
gets its *own* slot (regions are per block, exactly like the per-block
``LocalMemory`` copies of the by-value path), so concurrent workers
never share a written slot -- Theorems 1-4 guarantee each block writes
only its own data blocks, which is what makes the shared buffer
race-free without locks.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.runtime.layout import Sidecar

Coords = tuple[int, ...]
RegionKey = tuple[str, int]  # (array name, block index)


@dataclass(frozen=True)
class StoreLayout:
    """Where every block's every element lives in the flat buffers."""

    #: all array names, sorted (the region-major order)
    arrays: tuple[str, ...]
    #: arrays written by at least one statement (the only ones whose
    #: stamps/values need collecting)
    written: frozenset[str]
    #: (array, block) -> (offset, count) into the flat buffers
    regions: dict[RegionKey, tuple[int, int]] = field(repr=False)
    #: (array, block) -> canonical (sorted) element coordinate order
    order: dict[RegionKey, tuple[Coords, ...]] = field(repr=False)
    #: total float64 slots across all regions
    total_words: int = 0

    def slots(self, array: str, block: int) -> dict[Coords, int]:
        """The coords -> absolute-slot map of one region."""
        off, cnt = self.regions[(array, block)]
        return dict(zip(self.order[(array, block)], range(off, off + cnt)))


def build_layout(plan) -> StoreLayout:
    """Compute the layout of a plan (deterministic across processes)."""
    written = frozenset(s.lhs.array for s in plan.nest.statements)
    regions: dict[RegionKey, tuple[int, int]] = {}
    order: dict[RegionKey, tuple[Coords, ...]] = {}
    off = 0
    for name in sorted(plan.data_blocks):
        for db in plan.data_blocks[name]:
            elems = tuple(sorted(db.elements))
            key = (name, db.block_index)
            order[key] = elems
            regions[key] = (off, len(elems))
            off += len(elems)
    return StoreLayout(arrays=tuple(sorted(plan.data_blocks)),
                       written=written, regions=regions, order=order,
                       total_words=off)


_LAYOUTS = Sidecar(build_layout)


def layout_for(plan) -> StoreLayout:
    """The (cached) layout of ``plan``."""
    return _LAYOUTS.get(plan)
