"""Per-processor local memories.

A :class:`LocalMemory` stores array elements by coordinate tuple.  Every
access is checked: reading or writing an element that was never
allocated locally raises :class:`RemoteAccessError` -- in a real
multicomputer that access would be an interprocessor message, and the
whole point of the paper is that none occur.  The parallel executor
runs with these checks on and asserts a zero remote-access count.

A region can also be allocated as a *view* of a flat store (one list
per array; :mod:`repro.runtime.layout`): the memory then only records
where its elements live, and the dicts it is read through are rendered
from the store the first time anything asks for them -- and are the
memory from then on.
"""

from __future__ import annotations

from typing import Iterable, Optional

from repro.obs.metrics import current_registry


class RemoteAccessError(KeyError):
    """An access fell outside the processor's allocated data blocks."""

    def __init__(self, pid: int, array: str, coords: tuple[int, ...],
                 is_write: Optional[bool] = None):
        super().__init__(f"PE{pid}: remote access to {array}{list(coords)}")
        self.pid = pid
        self.array = array
        self.coords = coords
        self.is_write = is_write


class LocalMemory:
    """One processor's private memory: allocated elements + their values."""

    reads = 0
    writes = 0
    # combined remote count (kept for compatibility) plus the read/write
    # split -- a remote *read* is a fetch message on a real machine, a
    # remote *write* a store message; the audit layer reports both
    remote_attempts = 0
    remote_read_attempts = 0
    remote_write_attempts = 0

    def __init__(self, pid: int, strict: bool = True) -> None:
        self.pid = pid
        self.strict = strict
        # behind ``values`` / ``allocated``, once they have been read
        self._values: dict[str, dict[tuple[int, ...], float]] = {}
        self._allocated: dict[str, set[tuple[int, ...]]] = {}
        # while a view: the store's lists, array -> (elements, slots)
        self._grids: Optional[dict[str, list]] = None
        self._rows: dict[str, tuple] = {}

    # -- the view ---------------------------------------------------------
    def is_view_of(self, grids: dict[str, list]) -> bool:
        """Is this memory still an unrendered view of ``grids``?"""
        return self._grids is grids

    def _render(self) -> None:
        """Turn every view region into its dict, in allocation order."""
        grids, self._grids = self._grids, None
        rows, self._rows = self._rows, {}
        for array, (elements, slots) in rows.items():
            self._values[array] = held = dict(
                zip(elements, map(grids[array].__getitem__, slots)))
            self._allocated[array] = set(held)  # takes the dict's hashes
        current_registry().inc("runtime.memory.rendered_regions", len(rows))

    @property
    def values(self) -> dict[str, dict[tuple[int, ...], float]]:
        """array -> {coords -> value}; a view renders on first read."""
        if self._grids is not None:
            self._render()
        return self._values

    @property
    def allocated(self) -> dict[str, set[tuple[int, ...]]]:
        """array -> set of coords this processor owns (allocation map)."""
        if self._grids is not None:
            self._render()
        return self._allocated

    def __getstate__(self) -> dict:
        # a pickled memory (a by-value lease) is its rendered form: the
        # store does not travel with one block's share of it
        if self._grids is not None:
            self._render()
        return self.__dict__

    # -- allocation -------------------------------------------------------
    def allocate(self, array: str, coords_iter: Iterable[tuple[int, ...]],
                 init=None, view=None) -> int:
        """Allocate elements locally; returns the number of words allocated.

        ``init`` supplies the initial contents (the host-distributed
        initial data) as a callable ``(coords) -> value``.
        ``view=(grids, slots)`` instead makes the region a view of a
        flat store: ``coords_iter`` is a tuple of integer tuples whose
        ``j``-th element lives at ``grids[array][slots[j]]``, and
        nothing is done per element.  (Only an array's first region,
        in a memory of nothing but views -- what a run allocates;
        anything else is copied out of the store like an ``init``.)
        """
        if view is not None:
            grids, slots = view
            if self._grids is None and not self._values:
                self._grids = grids
            if self._grids is grids and array not in self._rows:
                self._rows[array] = (coords_iter, slots)
                return len(slots)
            init = dict(zip(coords_iter,
                            map(grids[array].__getitem__, slots))).__getitem__
        store = self.values.setdefault(array, {})
        alloc = self.allocated.setdefault(array, set())
        n = 0
        for c in coords_iter:
            c = tuple(int(x) for x in c)
            if c not in alloc:
                alloc.add(c)
                n += 1
            store[c] = float(init(c)) if init is not None else 0.0
        return n

    def holds(self, array: str, coords: tuple[int, ...]) -> bool:
        if self._grids is not None:
            self._render()
        return coords in self._allocated.get(array, ())

    def words(self) -> int:
        if self._grids is not None:
            return sum(len(slots) for _, slots in self._rows.values())
        return sum(len(s) for s in self._allocated.values())

    # -- access -------------------------------------------------------------
    def note_remote(self, is_write: Optional[bool] = None) -> None:
        """Count one remote attempt (split by direction when known).

        Engines that detect violations outside ``load``/``store`` (the
        vectorized up-front check, the multiprocess marker) charge the
        attempt here so the split counters stay consistent.
        """
        self.remote_attempts += 1
        if is_write:
            self.remote_write_attempts += 1
        elif is_write is not None:
            self.remote_read_attempts += 1

    def load(self, array: str, coords: tuple[int, ...]) -> float:
        coords = tuple(int(x) for x in coords)
        if not self.holds(array, coords):
            self.note_remote(is_write=False)
            if self.strict:
                raise RemoteAccessError(self.pid, array, coords,
                                        is_write=False)
            return 0.0
        self.reads += 1
        return self._values[array][coords]

    def store(self, array: str, coords: tuple[int, ...], value: float) -> None:
        coords = tuple(int(x) for x in coords)
        if not self.holds(array, coords):
            self.note_remote(is_write=True)
            if self.strict:
                raise RemoteAccessError(self.pid, array, coords,
                                        is_write=True)
            return
        self.writes += 1
        self._values[array][coords] = float(value)
