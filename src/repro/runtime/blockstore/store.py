"""The parent-side shared-memory block store.

One run allocates four segments (sized by the plan's
:class:`~repro.runtime.blockstore.layout.StoreLayout`):

- a ``float64`` **seed** buffer holding every (array, block) region's
  *initial* values, copied once from the run's freshly allocated local
  memories and read-only thereafter;
- a ``float64`` **values** buffer that workers *publish* finished
  results into;
- a parallel ``int64`` **write-stamp** buffer, reset to ``-1`` (the
  scatter-back mask: a slot whose stamp is ``>= 0`` was written);
- a small pickled **control** blob (the block -> pid map workers need
  for :class:`~repro.machine.memory.RemoteAccessError` parity).

The seed/values split is what keeps chaos recovery bit-identical:
every lease attempt computes in a worker-private copy of its block's
regions (seeded from the read-only seed buffer) and only *publishes*
final values and stamps at the end.  A crashed, dropped or expired
attempt therefore never taints the state the retry starts from -- the
retry re-derives the identical finals from the identical seed -- and
even two *concurrent* attempts at the same block (a late lease racing
its replacement) publish identical bytes per slot, so the writes are
race-free by value-identity, the same argument Theorems 1-4 make for
disjoint-write blocks.

The *plan* travels separately: it is pickled once per plan object into
its own segment (``plan_segment``), registered in a parent-side
registry keyed by plan identity and unlinked by a ``weakref.finalize``
when the plan dies (plus an ``atexit`` sweep, so no run can leak a
``/dev/shm`` entry past process exit).  Workers unpickle it once per
process and cache it, which is what turns the old 2 MB-per-lease plan
pickle into a one-time cost.

Lifecycle: the engine creates the store, the scheduler leases block
indices against its descriptor, :meth:`SharedBlockStore.collect`
reconstructs write stamps / memory values from the stamp grid, and the
engine unlinks the run segments in a ``finally`` -- on
success, degradation *and* abort alike.  Workers attach by name and
deregister from the resource tracker (attaching registers the segment
for unlink-at-exit on Python < 3.13, which would tear the store down
under the parent and every sibling worker the moment one worker
exits).
"""

from __future__ import annotations

import atexit
import itertools
import os
import pickle
import weakref
from dataclasses import dataclass
from typing import Optional

from repro import config
from repro.runtime import numpy_compat as npc
from repro.runtime.blockstore.layout import layout_for

#: Prefix of every segment this process creates -- the chaos smoke test
#: greps ``/dev/shm`` for it to assert leak-free unlinking.
SEGMENT_PREFIX = "repro-"

_SEQ = itertools.count()


def shm_available() -> bool:
    """Can (and should) runs use the shared-memory store?

    Requires numpy (the store is built on flat ndarray views; without
    it leases travel by value) and the
    ``multiprocessing.shared_memory`` module, and honors
    ``REPRO_NO_SHM=1``.  Re-checked per run so tests can flip either.
    """
    if config.get("REPRO_NO_SHM"):
        return False
    if npc.np is None:
        return False
    try:
        from multiprocessing import shared_memory  # noqa: F401
    except Exception:  # pragma: no cover - platform without shm
        return False
    return True


def _create_segment(kind: str, nbytes: int):
    from multiprocessing import shared_memory

    name = f"{SEGMENT_PREFIX}{kind}-{os.getpid()}-{next(_SEQ)}"
    return shared_memory.SharedMemory(name=name, create=True,
                                      size=max(1, nbytes))


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


def _write_blob(kind: str, blob: bytes):
    """A new segment holding ``len || blob`` (segments round up to page
    size, so the length prefix is what delimits the payload)."""
    seg = _create_segment(kind, 8 + len(blob))
    seg.buf[:8] = len(blob).to_bytes(8, "little")
    seg.buf[8:8 + len(blob)] = blob
    return seg


def read_blob(seg) -> bytes:
    n = int.from_bytes(bytes(seg.buf[:8]), "little")
    return bytes(seg.buf[8:8 + n])


def _close_segment(seg, unlink: bool) -> None:
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
# the per-plan pickled plan segment
# ---------------------------------------------------------------------------

#: id(plan) -> (weakref, segment); guarded by the weakref against id reuse.
_PLAN_SEGMENTS: dict[int, tuple] = {}


def plan_segment(plan) -> str:
    """The (cached) name of the segment holding ``plan``, pickled."""
    key = id(plan)
    hit = _PLAN_SEGMENTS.get(key)
    if hit is not None and hit[0]() is plan:
        return hit[1].name
    seg = _write_blob("plan", pickle.dumps(plan,
                                           protocol=pickle.HIGHEST_PROTOCOL))
    _PLAN_SEGMENTS[key] = (weakref.ref(plan), seg)
    weakref.finalize(plan, _release_plan_key, key)
    return seg.name


def _release_plan_key(key: int) -> None:
    hit = _PLAN_SEGMENTS.pop(key, None)
    if hit is not None:
        _close_segment(hit[1], unlink=True)


def release_plan_segment(plan) -> None:
    """Unlink ``plan``'s segment now (Session.close); idempotent."""
    _release_plan_key(id(plan))


@atexit.register
def _release_all_plan_segments() -> None:  # pragma: no cover - exit path
    for key in list(_PLAN_SEGMENTS):
        _release_plan_key(key)


# ---------------------------------------------------------------------------
# the run store
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StoreDescriptor:
    """Everything a worker needs to attach: names, not data.

    This is the whole lease payload the by-descriptor path ships in
    place of the plan and the pickled memories -- a few short strings.
    """

    plan_segment: str
    seed_segment: str
    values_segment: str
    stamps_segment: str
    control_segment: str
    words: int
    #: codegen store-kernel cache key, set only when the parent emitted
    #: a specialized kernel (rect regions + audit certificate); workers
    #: attach it from the shared on-disk cache and fall back to the
    #: generic dict kernel when absent
    codegen_key: Optional[str] = None


class SharedBlockStore:
    """Shared-memory block regions for one multiprocess run."""

    def __init__(self, plan, memories: dict) -> None:
        from repro.obs.metrics import current_registry
        from repro.obs.trace import current_tracer

        np = npc.np
        if np is None:  # pragma: no cover - guarded by shm_available()
            raise RuntimeError("SharedBlockStore requires numpy")
        self.plan = plan
        self.layout = layout_for(plan)
        self.codegen_key: Optional[str] = None
        total = self.layout.total_words
        with current_tracer().span("blockstore.create", category="engine",
                                   coarse=True, words=total,
                                   blocks=len(plan.blocks)) as sp:
            self._plan_name = plan_segment(plan)
            self._dseg = _create_segment("seed", total * 8)
            self._vseg = _create_segment("val", total * 8)
            self._sseg = _create_segment("stp", total * 8)
            self.seed = np.frombuffer(self._dseg.buf, dtype=np.float64,
                                      count=total)
            self.values = np.frombuffer(self._vseg.buf, dtype=np.float64,
                                        count=total)
            self.stamps = np.frombuffer(self._sseg.buf, dtype=np.int64,
                                        count=total)
            self.stamps[:] = -1
            self._write_seed(memories)
            pid_by_block = {b: mem.pid for b, mem in memories.items()}
            self._cseg = _write_blob(
                "ctl", pickle.dumps(pid_by_block,
                                    protocol=pickle.HIGHEST_PROTOCOL))
            nbytes = (self._dseg.size + self._vseg.size + self._sseg.size
                      + self._cseg.size)
            sp.set(bytes=nbytes)
        reg = current_registry()
        reg.inc("engine.shm.stores")
        reg.set("engine.shm.bytes", nbytes)

    def _write_seed(self, memories: dict) -> None:
        """Copy every region's initial values in canonical order."""
        np = npc.np
        for (name, bindex), (off, cnt) in self.layout.regions.items():
            if not cnt:
                continue
            vals = memories[bindex].values[name]
            order = self.layout.order[(name, bindex)]
            self.seed[off:off + cnt] = np.fromiter(
                (vals[c] for c in order), dtype=np.float64, count=cnt)

    def descriptor(self) -> StoreDescriptor:
        return StoreDescriptor(
            plan_segment=self._plan_name,
            seed_segment=self._dseg.name,
            values_segment=self._vseg.name,
            stamps_segment=self._sseg.name,
            control_segment=self._cseg.name,
            words=self.layout.total_words,
            codegen_key=self.codegen_key)

    def collect(self, result, memories: dict) -> None:
        """Reconstruct results from the stamp grid.

        Rebuilds ``result.write_stamps`` and scatters written values
        back into the per-block ``LocalMemory`` dicts (bit-identical to
        the by-value path: a slot is written iff its stamp is >= 0).
        """
        from repro.obs.trace import current_tracer

        np = npc.np
        write_stamps = result.write_stamps
        with current_tracer().span("blockstore.collect", category="engine",
                                   coarse=True,
                                   words=self.layout.total_words) as sp:
            written_slots = 0
            for (name, bindex), (off, cnt) in self.layout.regions.items():
                if name not in self.layout.written or not cnt:
                    continue
                region_stamps = self.stamps[off:off + cnt]
                hits = np.nonzero(region_stamps >= 0)[0]
                if not len(hits):
                    continue
                order = self.layout.order[(name, bindex)]
                mem_vals = memories[bindex].values[name]
                for i in hits.tolist():
                    c = order[i]
                    mem_vals[c] = float(self.values[off + i])
                    write_stamps[(bindex, name, c)] = int(region_stamps[i])
                written_slots += len(hits)
            sp.set(written=written_slots)

    def close(self, unlink: bool = True) -> None:
        """Release the run segments (idempotent).  The plan segment is
        registry-owned and survives for the next run on the same plan."""
        from repro.obs.metrics import current_registry

        segs = [s for s in (getattr(self, "_dseg", None),
                            getattr(self, "_vseg", None),
                            getattr(self, "_sseg", None),
                            getattr(self, "_cseg", None)) if s is not None]
        self.seed = None
        self.values = None
        self.stamps = None
        self._dseg = self._vseg = self._sseg = self._cseg = None
        for seg in segs:
            _close_segment(seg, unlink=unlink)
        if segs and unlink:
            current_registry().inc("engine.shm.unlinks")
