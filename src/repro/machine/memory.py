"""Per-block local memories.

A :class:`LocalMemory` is one block's region, the paper's data blocks
``B_j^A``: the array elements it holds, by coordinate tuple.  It keeps
no counters and checks no access: the interpreter tier looks every
access up in the region (or, run in place, the block's slot map into
the store), and counts one that misses on the run's
:class:`~repro.runtime.parallel.ParallelResult` (raising
:class:`RemoteAccessError` in a strict run).  On a real multicomputer
that access would be an interprocessor message, and the whole point of
the paper is that none occur.

A region can also be allocated as a *view* of a flat store (one list
per array; :mod:`repro.runtime.layout`): the memory then only records
how to find its elements, and an array's dict is rendered from the
store the first time anything asks for it (:meth:`LocalMemory.region`;
``values`` renders every one, in allocation order) -- and is that
array's region from then on; a run in place builds none.
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional

from repro.obs.metrics import current_registry


class RemoteAccessError(KeyError):
    """An access fell outside the processor's allocated data blocks."""

    #: the engine tier that raised it, once ``run_parallel`` has seen it
    backend: Optional[str] = None

    def __init__(self, pid: int, array: str, coords: tuple[int, ...],
                 is_write: Optional[bool] = None):
        super().__init__(f"PE{pid}: remote access to {array}{list(coords)}")
        self.pid = pid
        self.array = array
        self.coords = coords
        self.is_write = is_write


class LocalMemory:
    """One block's region on processor ``pid``: allocated elements +
    their values."""

    def __init__(self, pid: int,
                 view: Optional[tuple[dict, Callable]] = None) -> None:
        self.pid = pid
        # the regions rendered (or allocated) as dicts so far
        self._values: dict[str, dict[tuple[int, ...], float]] = {}
        # while a view: the store's lists, array -> a callable taking the
        # array, returning its {element: slot}; ``view=(grids, rows)``
        # makes every array of ``grids`` such a view
        self._grids: Optional[dict[str, list]] = view and view[0]
        self._rows: dict[str, Callable[[str], dict]] = (
            dict.fromkeys(view[0], view[1]) if view else {})

    # -- the view ---------------------------------------------------------
    def is_view_of(self, grids: dict[str, list]) -> bool:
        """Is this memory still an unrendered view of ``grids``?"""
        return self._grids is grids and not self._values

    def region(self, array: str) -> dict[tuple[int, ...], float]:
        """``{coords: value}`` of ``array``; a view's is rendered from
        the store on first read, and is the region from then on."""
        held = self._values.get(array)
        if held is None:   # a view's region (else ``_rows`` is empty)
            slots = self._rows[array](array)
            held = self._values[array] = dict(zip(
                slots, map(self._grids[array].__getitem__, slots.values())))
            current_registry().inc("runtime.memory.rendered_regions")
        return held

    @property
    def values(self) -> dict[str, dict[tuple[int, ...], float]]:
        """array -> {coords -> value}; a view renders every region on
        first read, in allocation order."""
        if self._grids is not None:
            self._values = {array: self.region(array) for array in self._rows}
            self._grids, self._rows = None, {}
        return self._values

    # -- allocation -------------------------------------------------------
    def allocate(self, array: str, coords_iter: Iterable[tuple[int, ...]],
                 init=None, view=None) -> int:
        """Allocate elements locally; returns the number of words copied in.

        ``init`` supplies the initial contents (the host-distributed
        initial data) as a callable ``(coords) -> value``.
        ``view=grids`` instead makes the region a view of a flat store,
        and ``coords_iter`` the block's *rows*: a callable taking
        ``array`` and returning ``{element: slot}`` (an element at
        ``grids[array][slot]``), called the first time anything reads
        the region -- nothing is done per element here, and no word
        copied.  (Only an array's first region, in a memory
        whose ``values`` nobody has read -- what a run's store allocates;
        anything else is copied out of the store like an ``init``.)
        """
        if view is not None:
            if self._grids is None and not self._values:
                self._grids = view
            if self._grids is view and array not in self._rows:
                self._rows[array] = coords_iter
                return 0
            slots = coords_iter = coords_iter(array)
            init = lambda c: view[array][slots[c]]  # noqa: E731
        store = self.values.setdefault(array, {})
        n = 0
        for c in coords_iter:
            c = tuple(int(x) for x in c)
            n += c not in store
            store[c] = float(init(c)) if init is not None else 0.0
        return n

    def words(self) -> int:
        if self._grids is not None:
            return sum(len(rows(array)) for array, rows in self._rows.items())
        return sum(map(len, self._values.values()))
