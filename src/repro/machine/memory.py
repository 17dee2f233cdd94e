"""Per-processor local memories.

A :class:`LocalMemory` stores array elements by coordinate tuple.  Every
access is checked: reading or writing an element that was never
allocated locally raises :class:`RemoteAccessError` -- in a real
multicomputer that access would be an interprocessor message, and the
whole point of the paper is that none occur.  The parallel executor
runs with these checks on and asserts a zero remote-access count.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional


class RemoteAccessError(KeyError):
    """An access fell outside the processor's allocated data blocks."""

    def __init__(self, pid: int, array: str, coords: tuple[int, ...],
                 is_write: Optional[bool] = None):
        super().__init__(f"PE{pid}: remote access to {array}{list(coords)}")
        self.pid = pid
        self.array = array
        self.coords = coords
        self.is_write = is_write


@dataclass
class LocalMemory:
    """One processor's private memory: allocated elements + their values."""

    pid: int
    # array -> {coords -> value}
    values: dict[str, dict[tuple[int, ...], float]] = field(default_factory=dict)
    # array -> set of coords this processor owns (allocation map)
    allocated: dict[str, set[tuple[int, ...]]] = field(default_factory=dict)
    reads: int = 0
    writes: int = 0
    # combined remote count (kept for compatibility) plus the read/write
    # split -- a remote *read* is a fetch message on a real machine, a
    # remote *write* a store message; the audit layer reports both
    remote_attempts: int = 0
    remote_read_attempts: int = 0
    remote_write_attempts: int = 0
    strict: bool = True

    # -- allocation -------------------------------------------------------
    def allocate(self, array: str, coords_iter: Iterable[tuple[int, ...]],
                 init=None) -> int:
        """Allocate elements locally; returns the number of words allocated.

        ``init`` supplies the initial contents (the host-distributed
        initial data): a callable ``(coords) -> value``, or a
        ``{coords: float}`` table of the source array
        (:meth:`~repro.runtime.arrays.DataSpace.value_table`) from which
        the region is copied in bulk -- coordinates (integer tuples) and
        values are stored as they come; an element the table lacks lies
        outside the source array and raises ``IndexError``.
        """
        store = self.values.setdefault(array, {})
        alloc = self.allocated.setdefault(array, set())
        if isinstance(init, dict):
            try:
                region = {c: init[c] for c in coords_iter}
            except KeyError as exc:
                raise IndexError(f"{array}{list(exc.args[0])} outside the "
                                 "initial array") from None
            before = len(alloc)
            alloc.update(region)
            store.update(region)
            return len(alloc) - before
        n = 0
        for c in coords_iter:
            c = tuple(int(x) for x in c)
            if c not in alloc:
                alloc.add(c)
                n += 1
            store[c] = float(init(c)) if init is not None else 0.0
        return n

    def holds(self, array: str, coords: tuple[int, ...]) -> bool:
        return coords in self.allocated.get(array, ())

    def words(self) -> int:
        return sum(len(s) for s in self.allocated.values())

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
        return self.values[array][coords]

    def store(self, array: str, coords: tuple[int, ...], value: float) -> None:
        coords = tuple(int(x) for x in coords)
        if not self.holds(array, coords):
            self.note_remote(is_write=True)
            if self.strict:
                raise RemoteAccessError(self.pid, array, coords,
                                        is_write=True)
            return
        self.writes += 1
        self.values[array][coords] = float(value)
