"""Per-plan codegen engine tier with a persistent on-disk kernel cache.

The ``codegen`` backend (declared in :mod:`repro.runtime.engine.base`).
Submodules:

- :mod:`.geometry` -- what can be specialized (flat grids, rect
  blocks, the communication-audit certificate);
- :mod:`.emit` -- the source emitters and rename-invariant kernel keys;
- :mod:`.diskcache` -- the lock-safe, size-capped on-disk cache;
- :mod:`.engine` -- the engine itself and the memory->disk->emit
  kernel-loading chain;
- :mod:`.storegen` -- specialized store kernels for blockstore
  workers, attached by cache key through descriptor leases.
"""

from repro._lazy import lazy_surface

__getattr__, __dir__, __all__ = lazy_surface(__name__, {
    "diskcache": ("DiskKernelCache", "get_disk_cache"),
    "engine": ("CodegenEngine", "load_kernel", "program_for"),
    "geometry": ("CodegenUnsupported",),
})
