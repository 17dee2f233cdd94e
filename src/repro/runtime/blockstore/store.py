"""The parent side: one run's flat store in shared memory.

The segments hold the run's :class:`~repro.runtime.layout.FlatStore`
grids in :class:`~repro.runtime.layout.PlanLayout`'s geometry, every
array's row-major box back to back in ``specs`` order:

- a ``float64`` **values** buffer, one box copy of ``store.grids``,
  that workers *publish* finished slots into;
- a parallel ``int64`` **stamps** buffer, reset to ``-1`` (a slot whose
  stamp is ``>= 0`` was written).

Views are ``memoryview.cast`` over the segments.  A worker computes on
a private copy of the values and publishes only the slots its share
wrote; shares write disjoint slots and read none another share writes
(Theorems 1-4), so the order in which workers copy and publish does not
matter.

No plan travels.  Every share carries the :class:`StoreDescriptor`
-- the segment names, the geometry, and what codegen's kernel is
emitted from and run with: the nest, Psi, the iteration space (whose
ranks stamp the writes) and the live set -- plus its points; the plan's
blocks and data blocks stay with the parent.

Creating a store is all-or-nothing: a segment that cannot be made
(``/dev/shm`` missing or full) unlinks every segment made so far before
the error propagates to the engine's loud degrade path.  The engine
unlinks a store's run segments in a ``finally``.  Workers attach by
name and do not register with the resource tracker (on Python < 3.13
attaching registers the segment for unlink-at-exit, which would tear
the store down under the parent and every sibling the moment one worker
exits).
"""

from __future__ import annotations

import itertools
import os
import weakref
from array import array
from dataclasses import dataclass
from typing import Optional

#: Prefix of every segment this process creates -- the multiprocess
#: smoke test greps ``/dev/shm`` for it to assert leak-free unlinking.
SEGMENT_PREFIX = "repro-"

_SEQ = itertools.count()


def _create_segment(kind: str, nbytes: int):
    from multiprocessing import shared_memory

    name = f"{SEGMENT_PREFIX}{kind}-{os.getpid()}-{next(_SEQ)}"
    return shared_memory.SharedMemory(name=name, create=True,
                                      size=max(8, nbytes))


def attach_segment(name: str):
    """Attach an existing segment by name (worker side).

    Attaching must *not* register the segment with the resource
    tracker: the parent owns the segment's lifecycle, tracker-driven
    unlink on worker exit would destroy it under everyone else, and
    (under fork, where the tracker process is shared) an
    unregister-after-attach would strip the parent's own registration
    instead.  Python < 3.13 has no ``track=`` parameter, so
    registration is suppressed around the attach.
    """
    from multiprocessing import resource_tracker, shared_memory

    orig = resource_tracker.register
    resource_tracker.register = lambda *a, **kw: None
    try:
        return shared_memory.SharedMemory(name=name)
    finally:
        resource_tracker.register = orig


def flat_view(seg, fmt: str, words: int) -> memoryview:
    """``words`` 8-byte items of ``seg`` (segments may round up)."""
    return seg.buf[:8 * words].cast(fmt)


def close_segment(seg, unlink: bool = False) -> None:
    try:
        seg.close()
    except BufferError:  # pragma: no cover - a live view kept the map
        pass
    if unlink:
        try:
            seg.unlink()
        except FileNotFoundError:  # pragma: no cover - already gone
            pass


# ---------------------------------------------------------------------------
# the run store
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StoreDescriptor:
    """Everything a worker needs to attach and run: names, the grid
    geometry, codegen's kernel key and the kernel's inputs -- no data,
    no blocks."""

    values_segment: str
    stamps_segment: str
    #: array -> GridSpec, in layout order (the order of the buffers)
    specs: dict
    #: arrays some statement writes (the only ones published)
    written: tuple
    #: the key ``program_for`` loaded the kernel under
    key: str
    scalars: tuple
    #: what the kernel is emitted from and run with: the plan's
    #: ReferenceModel (its nest, each reference's ``(H, c)``, and the
    #: IterationSpace that ranks the stamps) and Psi
    model: object
    psi: object
    #: the live computations (Sec. III.C), or None: every one runs
    live: Optional[frozenset]

    def spans(self):
        """``(array, offset, size)`` of every grid in the buffers."""
        off = 0
        for name, spec in self.specs.items():
            yield name, off, spec.size
            off += spec.size

    @property
    def words(self) -> int:
        return sum(spec.size for spec in self.specs.values())


class SharedBlockStore:
    """The run's flat store, copied once into shared memory."""

    def __init__(self, plan, store, key: str, scalars) -> None:
        from repro.obs.metrics import current_registry
        from repro.obs.trace import current_tracer

        self.store = store
        layout = store.layout
        words = sum(spec.size for spec in layout.specs.values())
        self._segs, self.values, self.stamps = [], None, None
        _OPEN.add(self)
        with current_tracer().span("blockstore.create", category="engine",
                                   words=words,
                                   blocks=len(plan.blocks)) as sp:
            try:
                for kind in ("val", "stp"):
                    self._segs.append(_create_segment(kind, 8 * words))
            except BaseException:
                self.close()
                raise
            self.values = flat_view(self._segs[0], "d", words)
            self.stamps = flat_view(self._segs[1], "q", words)
            self.stamps[:] = array("q", [-1]) * words
            self.desc = StoreDescriptor(
                *(seg.name for seg in self._segs),
                specs=dict(layout.specs), written=tuple(layout.written),
                key=key, scalars=tuple(sorted(scalars.items())),
                model=plan.model, psi=plan.psi,
                live=plan.live)
            for name, off, size in self.desc.spans():
                self.values[off:off + size] = array("d", store.grids[name])
            nbytes = sum(seg.size for seg in self._segs)
            sp.set(bytes=nbytes)
        reg = current_registry()
        reg.inc("engine.shm.stores")
        reg.set("engine.shm.bytes", nbytes)

    def collect(self) -> None:
        """Copy the written grids back into the run's store, with their
        stamp lists, as an in-place codegen run leaves them (a slot no
        share published still holds the store's own value)."""
        from repro.obs.trace import current_tracer

        grids, stamps = self.store.grids, {}
        with current_tracer().span("blockstore.collect", category="engine",
                                   words=self.desc.words) as sp:
            for name, off, size in self.desc.spans():
                if name not in self.desc.written:
                    continue
                stamps[name] = self.stamps[off:off + size].tolist()
                grids[name][:] = self.values[off:off + size].tolist()
            self.store.stamps = stamps
            sp.set(written=sum(s >= 0 for got in stamps.values()
                               for s in got))

    def close(self) -> None:
        """Release and unlink the run segments (idempotent)."""
        from repro.obs.metrics import current_registry

        if self._unmap(unlink=True):
            current_registry().inc("engine.shm.unlinks")

    def _unmap(self, unlink: bool = False) -> bool:
        """Release the views and close the segments; True if any was
        open."""
        for view in (self.values, self.stamps):
            if view is not None:
                view.release()
        self.values = self.stamps = None
        segs, self._segs = self._segs, []
        for seg in segs:
            close_segment(seg, unlink=unlink)
        return bool(segs)


def _unmap_in_child() -> None:
    """A process forked while a store is open (a pool's workers are
    forked on the run's first submit) drops its copies of the mappings:
    the parent unlinks the segments, and a worker that kept them mapped
    would hold their memory for as long as it lives."""
    for store in list(_OPEN):
        store._unmap()


#: the stores open in this process
_OPEN: "weakref.WeakSet[SharedBlockStore]" = weakref.WeakSet()
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_unmap_in_child)
