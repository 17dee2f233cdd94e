"""Execution runtimes.

- :mod:`~repro.runtime.arrays`: :class:`DataSpace`, an array (one flat
  list of floats) with arbitrary (possibly negative) index origins,
  sized automatically from the loop's access footprint;
- :mod:`~repro.runtime.seq`: the sequential interpreter -- the golden
  model every parallel execution is verified against;
- :mod:`~repro.runtime.parallel`: the parallel executor: places data
  blocks into simulated local memories, runs each iteration block on
  its processor with *strict* locality checking (a remote access
  raises), and timestamps writes for merging;
- :mod:`~repro.runtime.merge`: last-writer merge of replicated copies
  (the duplicate-data strategy's output-dependence semantics);
- :mod:`~repro.runtime.verify`: one-call end-to-end verification;
- :mod:`~repro.runtime.engine`: the pluggable execution-engine layer
  (interpreter / compiled kernels / codegen / vectorized /
  multiprocess / auto), all bit-identical, selected with ``backend=``
  on the entry points;
- :mod:`~repro.runtime.scheduler`: the dynamic, fault-tolerant block
  scheduler behind the multiprocess engine (leases, retries, chaos
  injection via :class:`FaultPlan`);
- :mod:`~repro.runtime.blockstore`: the zero-copy shared-memory block
  store multiprocess leases execute against (by-descriptor payloads,
  seed/publish idempotence; ``REPRO_NO_SHM=1`` forces the by-value
  copy-through path);
- :mod:`~repro.runtime.pool`: :class:`WorkerPool`, the reusable worker
  pool -- ephemeral per run by default, persistent across runs when a
  :class:`~repro.api.Session` (or :func:`use_pool`) scopes one.
"""

from repro._lazy import lazy_surface

__getattr__, __dir__, __all__ = lazy_surface(__name__, {
    "arrays": (
        "DataSpace", "array_footprints", "default_init", "make_arrays",
    ),
    "seq": ("run_sequential", "eval_expr"),
    "parallel": ("ParallelResult", "run_parallel"),
    "merge": ("merge_copies",),
    "verify": ("VerificationReport", "cross_check_backends", "verify_plan"),
    "machine_run": ("MachineRun", "run_on_machine"),
    "engine": (
        "available_backends", "backend_names", "get_engine",
        "resolve_engine",
    ),
    "scheduler": (
        "BlockScheduler", "FaultPlan", "SchedulerResult",
        "current_fault_plan", "use_fault_plan",
    ),
    "blockstore": (
        "SharedBlockStore", "StoreDescriptor", "release_plan_segment",
        "shm_available",
    ),
    "pool": ("WorkerPool", "current_pool", "use_pool"),
})
