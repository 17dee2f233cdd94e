"""The execution-engine layer: pluggable backends for the runtime.

One :class:`~repro.runtime.engine.base.Engine` interface, four tiers:

- ``interp`` -- the tree-walking interpreter (the golden model);
- ``compiled`` -- statement-specialized kernels: each ``Assign`` is
  lowered once into a generated Python closure with scalars constant-
  folded and affine subscripts precomputed as stride/offset arithmetic;
- ``vectorized`` -- numpy lock-step execution: all communication-free
  blocks advance one iteration per step as whole-array operations;
- ``multiprocess`` -- fans independent blocks out across worker
  processes (legal *because* the plan is communication-free) and merges
  per-block memories and write stamps back deterministically.

``resolve_engine(name)`` honors the ``REPRO_BACKEND`` environment
variable and falls back down the chain (``vectorized`` -> ``compiled``
-> ``interp``) when a tier is unavailable (no numpy, no process pool)
or does not support a given plan.  Every backend produces bit-identical
final arrays and write stamps to the interpreter; the parity suite
(``tests/runtime/test_engine_parity.py``) pins this.
"""

from repro._lazy import lazy_surface

__getattr__, __dir__, __all__ = lazy_surface(__name__, {
    "base": (
        "BackendUnavailable", "DEFAULT_BACKEND", "Engine",
        "available_backends", "backend_names", "get_engine",
        "resolve_engine",
    ),
})
