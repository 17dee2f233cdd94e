"""Dynamic, fault-tolerant block scheduling (see :mod:`.core`)."""

from repro._lazy import lazy_surface

__getattr__, __dir__, __all__ = lazy_surface(__name__, {
    "core": (
        "ATTEMPTS_ENV_VAR", "BATCH_ENV_VAR", "DYNAMIC",
        "SCHED_ENV_VAR", "STATIC", "TIMEOUT_ENV_VAR", "BlockScheduler",
        "LeaseRecord", "PoolCollapse", "RetryPolicy", "SchedulerError",
        "SchedulerResult", "default_batch_size", "scheduler_mode",
    ),
    "faults": (
        "CHAOS_ENV_VAR", "FaultPlan", "current_fault_plan",
        "use_fault_plan",
    ),
    "timeline": ("render_timeline",),
})
