"""One flat store per run, laid out once per plan.

In the paper a block's local memory is its data blocks ``B_j^A`` and,
by Theorems 1-4, the block touches nothing else: a block's memory is a
*restriction of the array*, fixed by the plan's ``H i + c``.  So a run
keeps each array once -- a :class:`FlatStore`: one flat list per array
in the row-major bounding box of its allocated elements
(:class:`GridSpec`), filled by one box copy out of the initial array --
and a block's :class:`~repro.machine.memory.LocalMemory` is a *view* of
it.  The :class:`PlanLayout` is sized once per plan from integer
columns of the plan's ``H i + c``, a block's slot maps (its elements
and their slots in each array's list) when first needed, and a region
becomes a ``{coords: value}`` dict only when something reads it as one:
from then on the dict is what counts.  A block's memory is not even
built until something reads one (:class:`BlockMemories`), and no tier
reads one where it can run on the lists in place (:func:`in_place`;
DESIGN.md, "Allocation").
The layout lives beside its plan in a :class:`~repro._lazy.Sidecar`, as
every fact derived from a plan, a nest or a space does: nothing derived
is stored on the object it is derived from (DESIGN.md §5).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from itertools import chain, compress, product, repeat
from operator import add, mul
from types import MappingProxyType
from typing import Mapping, Optional

from repro._lazy import Sidecar
from repro.core.partition import dot_columns, image_map
from repro.machine.memory import LocalMemory
from repro.obs.metrics import current_registry


def c_strides(shape: tuple[int, ...]) -> tuple[int, ...]:
    """Row-major strides, in elements, of a dense grid of ``shape``."""
    strides = [1] * len(shape)
    for d in range(len(shape) - 2, -1, -1):
        strides[d] = strides[d + 1] * shape[d + 1]
    return tuple(strides)


@dataclass(frozen=True)
class GridSpec:
    """Dense row-major bounding box of one array's allocated elements."""

    lo: tuple[int, ...]
    shape: tuple[int, ...]
    strides: tuple[int, ...]
    size: int


def _chunks(dblocks, blocks, whole) -> list[tuple]:
    """One array's ``(block, element)`` columns, in chunks ``(owners,
    columns, offsets)``: per point the owning block index and, per
    dimension, a column of ``H i`` -- the elements are ``columns + c``
    for every ``c`` in ``offsets``.  The planner's images of ``blocks``
    come as one access map's columns over ``whole`` (the owners, the
    points and the index columns of ``blocks``); any other data blocks
    (explicit ones, a sabotaged plan's) as their own elements."""
    access = image_map(dblocks, blocks)
    if access is None:
        chunks = []
        for db in dblocks:
            elements = db.elements
            if elements:
                columns = list(zip(*elements))
                chunks.append(([db.block_index] * len(elements),
                               columns, [(0,) * len(columns)]))
        return chunks
    owners, points, index = whole
    image = [tuple(dot_columns(row, index)) for row in access.h_rows]
    if access.live is None:
        return [(owners, image, [c for _, c in access.refs])]
    offsets: dict[int, list] = {}          # statement -> its offsets
    for k, c in access.refs:
        offsets.setdefault(k, []).append(c)
    chunks = []
    for k, cs in offsets.items():
        mask = [(k, it) in access.live for it in points]
        chunks.append((list(compress(owners, mask)),
                       [list(compress(col, mask)) for col in image], cs))
    return chunks


def _shifted(columns, c) -> list:
    """``columns + c``, lazily, a column of zero shift as it is."""
    return [map(add, column, repeat(cd)) if cd else column
            for cd, column in zip(c, columns)]


def _array_layout(chunks, written: bool) -> tuple[GridSpec, int, bool]:
    """``(grid, words, replicated?)`` of one array from its
    :func:`_chunks`: the box around every element, the number of
    distinct ``(block, element)`` pairs, and -- for a ``written``
    array -- whether there are more pairs than distinct elements."""
    lows, highs, pairs, held = [], [], set(), set()
    for owners, columns, offsets in chunks:
        if not owners:
            continue
        least, most = list(map(min, columns)), list(map(max, columns))
        for c in offsets:
            lows.append(tuple(map(add, least, c)))
            highs.append(tuple(map(add, most, c)))
            pairs.update(zip(owners, *_shifted(columns, c)))
            if written:
                held.update(zip(*_shifted(columns, c)))
    if not lows:
        return GridSpec(lo=(), shape=(), strides=(), size=0), 0, False
    lo, hi = tuple(map(min, zip(*lows))), tuple(map(max, zip(*highs)))
    shape = tuple(h - l + 1 for l, h in zip(lo, hi))
    strides = c_strides(shape)
    spec = GridSpec(lo=lo, shape=shape, strides=strides,
                    size=shape[0] * strides[0])
    return spec, len(pairs), len(held) < len(pairs) if written else False


class PlanLayout:
    """Where every element of every block lives in the flat store.

    Sized from whole-space integer columns (:func:`_chunks`): a
    planner's data blocks are never enumerated for it.  A block's slot
    maps are built the first time anything needs them.  The layout
    keeps the plan's data blocks but not the plan: it lives beside the
    plan in a :class:`Sidecar`, and must not keep it alive.
    """

    def __init__(self, plan) -> None:
        stored = {s.lhs.array for s in plan.nest.statements}
        #: array -> the geometry of its list (what codegen's kernels
        #: are specialised to)
        self.specs: dict[str, GridSpec] = {}
        #: allocated words, a replicated element once per copy
        self.words = 0
        replicated = []
        # every point of the plan, in block order: its block, itself,
        # and one column per loop index
        points = list(chain.from_iterable(b.iterations for b in plan.blocks))
        #: how many points the plan has
        self.points = len(points)
        whole = (list(chain.from_iterable(repeat(b.index, len(b.iterations))
                                          for b in plan.blocks)),
                 points, list(zip(*points)))
        for name, dblocks in plan.data_blocks.items():
            spec, words, twice = _array_layout(
                _chunks(dblocks, plan.blocks, whole), name in stored)
            self.specs[name] = spec
            self.words += words
            if twice:
                replicated.append(name)
        #: arrays some statement writes, in ``specs`` order; and those of
        #: them with an element two blocks hold (in-place engines refuse)
        self.written = tuple(n for n in self.specs if n in stored)
        self.replicated = tuple(replicated)
        #: block indices in plan order: the order of a run's memories
        self.block_indices = tuple(b.index for b in plan.blocks)
        #: the default placement, one processor per block (read-only)
        self.identity = MappingProxyType(
            dict(zip(self.block_indices, self.block_indices)))
        self._data = plan.data_blocks
        self._slots: dict[tuple, dict[str, dict]] = {}

    def slot_maps(self, bindex: int, regions: tuple = ()) -> dict:
        """array -> ``{element: slot}`` of block ``bindex``'s region in
        the array's list, in the data block's own iteration order (a
        rendered dict's); built for every array at once.  An array of
        ``regions`` maps each element to itself: its rendered dict's key."""
        maps = self._slots.get((bindex, regions))
        if maps is None:
            maps = self._slots[bindex, regions] = {}
            for name, spec in self.specs.items():
                elements = self._data[name][bindex].elements
                base = sum(map(mul, spec.lo, spec.strides))
                maps[name] = (dict(zip(elements, elements)) if name in regions
                              else {e: sum(map(mul, e, spec.strides)) - base
                                    for e in elements})
        return maps


_LAYOUTS = Sidecar(PlanLayout)


def layout_for(plan) -> PlanLayout:
    """The (cached) flat layout of ``plan``."""
    return _LAYOUTS.get(plan)


def _box(specs: Mapping[str, GridSpec], name: str) -> dict[tuple, int]:
    """``{element: slot}`` of the whole of array ``name``'s list."""
    spec = specs[name]
    return dict(zip(product(*map(range, spec.lo,
                                 map(add, spec.lo, spec.shape))),
                    range(spec.size)))


class FlatStore:
    """One run's memory: one flat list per array, in layout geometry."""

    def __init__(self, layout: PlanLayout, initial: Mapping) -> None:
        self.layout = layout
        #: array -> values (an initial array that does not cover the
        #: box raises the ``IndexError`` naming it)
        self.grids = {
            name: (initial[name].box_values(spec.lo, spec.shape)
                   if spec.size else [])
            for name, spec in layout.specs.items()}
        #: written array -> stamp per slot (-1: never written): set by
        #: an engine that ran on ``grids`` in place, taken away when
        #: ``ParallelResult.write_stamps`` renders it
        self.stamps: Optional[dict[str, list[int]]] = None
        #: the run as one memory, an array's box a region.  Nothing
        #: reads it: it stays because its ``allocate`` calls, one per
        #: array before any engine runs, are what the performance
        #: ledger times as the run's ``runtime.allocate`` layer
        self.memory = LocalMemory(-1)
        box = partial(_box, layout.specs)
        for name in self.grids:
            self.memory.allocate(name, box, view=self.grids)

    def views(self, block_to_pid: Mapping[int, int]) -> dict[int, LocalMemory]:
        """One memory per block, every region a view of this store."""
        grids, maps = self.grids, self.layout.slot_maps
        memories = {bindex: LocalMemory(block_to_pid[bindex],
                                        view=(grids, maps(bindex).__getitem__))
                    for bindex in self.layout.block_indices}
        current_registry().inc("runtime.memory.block_views", len(memories))
        return memories

    def all_views(self, memories: Mapping[int, LocalMemory]) -> bool:
        """Do the lists alone still say what all of ``memories`` hold?"""
        if isinstance(memories, BlockMemories):
            memories = memories.built or {}
        return all(m.is_view_of(self.grids) for m in memories.values())

    def stamp_lists(self) -> dict[str, list[int]]:
        """Fresh :attr:`stamps`, all -1, for an engine to stamp in place."""
        self.stamps = {n: [-1] * len(self.grids[n])
                       for n in self.layout.written}
        return self.stamps

    def render_stamps(self) -> dict:
        """The flat stamp lists, taken away, as ``(block, array,
        coords) -> stamp`` of every written slot."""
        stamps, self.stamps = self.stamps, None
        layout = self.layout
        return {(bindex, name, c): stamps[name][f]
                for bindex in layout.block_indices for name in stamps
                for c, f in layout.slot_maps(bindex)[name].items()
                if stamps[name][f] >= 0}


def in_place(result, replicas: bool = False) -> bool:
    """May an engine run ``result`` on its store's lists in place: a store,
    block memories unbuilt, no written replica (unless ``replicas``)?"""
    store = result.store
    return (store is not None and result.memories.built is None
            and (replicas or not store.layout.replicated))


class BlockMemories(Mapping):
    """Block index -> the block's memory in a run on ``store``, built
    (:meth:`FlatStore.views`) the first time anything reads one."""

    def __init__(self, store: FlatStore,
                 block_to_pid: Mapping[int, int]) -> None:
        self.store, self.block_to_pid = store, block_to_pid
        #: the memories, once something has read one
        self.built: Optional[dict[int, LocalMemory]] = None

    def __getitem__(self, bindex: int) -> LocalMemory:
        if self.built is None:
            self.built = self.store.views(self.block_to_pid)
        return self.built[bindex]

    def __iter__(self):
        return iter(self.store.layout.block_indices)

    def __len__(self) -> int:
        return len(self.store.layout.block_indices)

