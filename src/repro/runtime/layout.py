"""One flat store per run, laid out once per plan.

In the paper a block's local memory is its data blocks ``B_j^A`` and,
by Theorems 1-4, the block touches nothing else: a block's memory is a
*restriction of the array*, fixed by the plan's ``H i + c``.  So a run
keeps each array once -- a :class:`FlatStore`: one flat list per array
in the row-major bounding box of its allocated elements
(:class:`GridSpec`), filled by one box copy out of the initial array --
and a block's :class:`~repro.machine.memory.LocalMemory` is a *view* of
it: per region, a row of the :class:`PlanLayout` (the element
coordinates and their slots in the array's list), derived once per
plan.  A region becomes a ``{coords: value}`` dict only when something
reads it as one, and from then on the dict is what counts; the tiers
that compute on dense grids (certified ``codegen``, ``vectorized``)
never do, and run on the lists in place (DESIGN.md, "Allocation").
:class:`Sidecar` is how the layout, and every other table derived from
a plan, is kept beside the plan.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from itertools import repeat
from operator import add, mul
from typing import Callable, Mapping, Optional

from repro.machine.memory import LocalMemory


class Sidecar:
    """Values derived from an object, cached beside it while it lives.

    Keyed by ``id(owner)`` under a weak reference: owners stay
    picklable, an id reused after collection cannot hit, dead entries
    are dropped.  ``build(owner, *args)`` runs to completion *before*
    its value is published, so an exception leaves no entry behind --
    except one of the ``negative`` types, which is remembered and
    raised again by every later ``get`` (finding a plan unsupported
    costs as much as deriving its tables).  ``valid(owner, value)``
    lets a value that depends on more than the owner's identity refuse
    a hit.
    """

    def __init__(self, build: Callable, negative: tuple = (),
                 valid: Optional[Callable] = None) -> None:
        self._build = build
        self._negative = negative
        self._valid = valid or (lambda owner, value: True)
        #: id(owner) -> (weakref, value, None or a refusal's (type, args))
        self._entries: dict[int, tuple] = {}

    def get(self, owner, *args):
        key = id(owner)
        ref, value, refusal = self._entries.get(key, (None, None, None))
        mine = ref is not None and ref() is owner
        if not mine or (refusal is None
                        and not self._valid(owner, value)):
            try:
                value, refusal = self._build(owner, *args), None
            except self._negative as exc:
                # its type and args, not the exception: once raised it
                # holds every frame it passed through, and with them
                # the run's plan, store and memories
                value, refusal = None, (type(exc), exc.args)
            if not mine:
                weakref.finalize(owner, self._entries.pop, key, None)
            self._entries[key] = (weakref.ref(owner), value, refusal)
        if refusal is not None:
            kind, exc_args = refusal
            raise kind(*exc_args)
        return value


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


def _grid_spec(dblocks) -> GridSpec:
    """The box around every element any of ``dblocks`` holds."""
    columns = [list(zip(*db.elements)) for db in dblocks if db.elements]
    corners = [tuple(map(pick, cols)) for cols in columns
               for pick in (min, max)]
    if not corners:
        return GridSpec(lo=(), shape=(), strides=(), size=0)
    lo = tuple(map(min, zip(*corners)))
    shape = tuple(h - l + 1 for l, h in zip(lo, map(max, zip(*corners))))
    size = 1
    for d in shape:
        size *= d
    return GridSpec(lo=lo, shape=shape, strides=c_strides(shape), size=size)


class PlanLayout:
    """Where every element of every block lives in the flat store."""

    def __init__(self, plan) -> None:
        #: array -> the geometry of its list (what codegen's kernels
        #: are specialised to)
        self.specs = {name: _grid_spec(dblocks)
                      for name, dblocks in plan.data_blocks.items()}
        #: per block, in plan order: ``(block index, [(array, elements,
        #: slots), ...])``, ``elements[j]`` at ``slots[j]`` of the
        #: array's list; elements keep the data block's own iteration
        #: order, which is the order a rendered dict has
        self.rows = []
        held = {name: [] for name in self.specs}  # slots, with repeats
        origin = {name: sum(map(mul, spec.lo, spec.strides))
                  for name, spec in self.specs.items()}
        for b in plan.blocks:
            regions = []
            for name, dblocks in plan.data_blocks.items():
                strides, base = self.specs[name].strides, origin[name]
                elements = tuple(dblocks[b.index].elements)
                slots = [sum(map(mul, c, strides)) - base for c in elements]
                regions.append((name, elements, slots))
                held[name] += slots
            self.rows.append((b.index, regions))
        self.words = sum(map(len, held.values()))
        #: arrays some statement writes, in ``specs`` order; and those of
        #: them with an element two blocks hold (in-place engines refuse)
        stored = {s.lhs.array for s in plan.nest.statements}
        self.written = tuple(n for n in self.specs if n in stored)
        self.replicated = tuple(n for n in self.written
                                if len(set(held[n])) < len(held[n]))
        # plans are mutable at the container level (the sabotage-style
        # negative tests rewrite block slots): remember what was laid out
        self._blocks = list(plan.blocks)
        self._data_blocks = {name: list(dblocks)
                             for name, dblocks in plan.data_blocks.items()}

    def matches(self, plan) -> bool:
        """Is ``plan`` still made of these blocks?  (Pointer compares.)"""
        return (plan.blocks == self._blocks
                and plan.data_blocks == self._data_blocks)


_LAYOUTS = Sidecar(PlanLayout, valid=lambda plan, layout: layout.matches(plan))


def layout_for(plan) -> PlanLayout:
    """The (cached) flat layout of ``plan``."""
    return _LAYOUTS.get(plan)


def footprint_allocated(plan) -> bool:
    """Does every data block hold every element its block touches?

    The static check of the *materialised* allocation, beside the
    algebraic certificate of the partition (:mod:`repro.obs.certificate`):
    a kernel that elides ownership checks needs both.  For a plan whose
    every computation runs (no live mask).  Column arithmetic: each
    coordinate of ``H i + c`` over a block is a few C-speed ``map`` s
    over the block's index columns, and the test is one ``issuperset``.
    """
    arrays = [(info.h_rows, list(dict.fromkeys(r.c for r in info.references)),
               plan.data_blocks[name])
              for name, info in plan.model.arrays.items()]
    for b in plan.blocks:
        columns = list(zip(*b.iterations))
        for h_rows, offsets, dblocks in arrays:
            image = []                       # H i, one column per dimension
            for row in h_rows:
                acc = None
                for a, column in zip(row, columns):
                    if a:
                        term = column if a == 1 else map(mul, repeat(a), column)
                        acc = term if acc is None else map(add, acc, term)
                image.append(tuple(acc) if acc is not None
                             else (0,) * len(b.iterations))
            for c in offsets:
                touched = zip(*(map(add, repeat(cd), column) if cd else column
                                for cd, column in zip(c, image)))
                if not dblocks[b.index].elements.issuperset(touched):
                    return False
    return True


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

    def views(self, block_to_pid: Mapping[int, int],
              strict: bool = True) -> dict[int, LocalMemory]:
        """One memory per block, every region a view of this store."""
        grids, memories = self.grids, {}
        for bindex, regions in self.layout.rows:
            mem = memories[bindex] = LocalMemory(block_to_pid[bindex], strict)
            for name, elements, slots in regions:
                mem.allocate(name, elements, view=(grids, slots))
        return memories

    def all_views(self, memories: Mapping[int, LocalMemory]) -> bool:
        """Do the lists alone still say what all of ``memories`` hold?"""
        return all(m.is_view_of(self.grids) for m in memories.values())

    def render_stamps(self) -> dict:
        """The flat stamp lists, taken away, as ``(block, array,
        coords) -> stamp`` of every written slot."""
        stamps, self.stamps = self.stamps, None
        return {(bindex, name, c): stamps[name][f]
                for bindex, regions in self.layout.rows
                for name, elements, slots in regions if name in stamps
                for c, f in zip(elements, slots) if stamps[name][f] >= 0}


def in_place_store(result, plan, memories) -> Optional[FlatStore]:
    """The store of ``result`` if an engine may run on its lists in
    place: laid out for ``plan`` as it is now, not run on yet, every one
    of ``memories`` still an unrendered view of it.  Else None: the
    dicts (read, perhaps changed, or built by hand) are the memory."""
    store = getattr(result, "store", None)
    if store is not None and store.layout is layout_for(plan) \
            and store.stamps is None and store.all_views(memories):
        return store
    return None
