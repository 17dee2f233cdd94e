"""Zero-copy block storage for the multiprocess engine.

The paper's theorems make iteration blocks touch *disjoint* written
data, so workers need no coordination at all -- and therefore no data
motion either: instead of pickling every block's local memory to a
worker and back (the old by-value lease), the parent lays all block
regions out in ``multiprocessing.shared_memory`` segments once and
leases blocks **by descriptor** (segment names + per-block offsets).
Workers attach by name, execute straight into numpy views, and the
parent reconstructs results from the shared write-stamp grid.

- :mod:`.layout` -- the canonical array-major segment layout, one
  ``(offset, count)`` region per (array, block) in sorted element
  order;
- :mod:`.store`  -- the parent-side :class:`SharedBlockStore`: segment
  creation, seeding, result collection, leak-proof unlink, and the
  per-plan pickled plan segment workers attach once per process;
- :mod:`.worker` -- the worker-side lease runner with its attach /
  plan / index caches (a respawned worker re-attaches by name) and the
  generic store kernel's memory target (the shared per-iteration
  lowering aimed at the flat views).

When shared memory is unavailable (``REPRO_NO_SHM=1``, no numpy --
``REPRO_NO_NUMPY`` included --, or a platform without
``shared_memory``) the scheduler falls back to the by-value lease path:
rendered block memories pickled to the worker and back, same results.

This package is one of the two importers of numpy (through
:mod:`repro.runtime.numpy_compat`; the other is the ``vectorized``
tier): only a multiprocess run loads it, and
:meth:`repro.api.Session.close` releases a plan segment only if
:mod:`.store` is already loaded.
"""

from repro._lazy import lazy_surface

__getattr__, __dir__, __all__ = lazy_surface(__name__, {
    "layout": ("StoreLayout", "layout_for"),
    "store": (
        "SharedBlockStore", "StoreDescriptor", "release_plan_segment",
        "shm_available",
    ),
})
