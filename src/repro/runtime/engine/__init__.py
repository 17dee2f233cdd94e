"""The execution-engine layer: pluggable backends for the runtime.

One :class:`~repro.runtime.engine.base.Engine` interface, six names:

- ``interp`` -- the closure-built interpreter (the golden model);
- ``compiled`` -- statement-specialized kernels: each ``Assign`` is
  lowered once into a generated Python closure with scalars constant-
  folded and affine subscripts precomputed as stride/offset arithmetic;
- ``codegen`` -- per-plan kernels over flat per-block regions, emitted
  once a zero-cross-access certificate holds and persisted on disk;
- ``vectorized`` -- numpy lock-step execution: all communication-free
  blocks advance one iteration per step as whole-array operations;
- ``multiprocess`` -- fans independent blocks out across worker
  processes (legal *because* the plan is communication-free) and merges
  per-block memories and write stamps back deterministically;
- ``auto`` -- the tier the ledger measures fastest (codegen).

``resolve_engine(name)`` falls back down the chain (``vectorized`` ->
``compiled`` -> ``interp``) when a tier is unavailable (no numpy, no
process pool) or does not support a given plan.  Every backend produces
bit-identical final arrays and write stamps to the interpreter; the
parity suite (``tests/runtime/test_engine_parity.py``) pins this.
"""

from repro._lazy import lazy_surface

__getattr__, __dir__, __all__ = lazy_surface(__name__, {
    "base": (
        "BackendUnavailable", "DEFAULT_BACKEND", "Engine",
        "available_backends", "backend_names", "get_engine",
        "resolve_engine",
    ),
})
