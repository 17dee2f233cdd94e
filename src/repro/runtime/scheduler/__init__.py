"""Dynamic, fault-tolerant block scheduling (see :mod:`.core`)."""

from repro._lazy import lazy_surface

__getattr__, __dir__, __all__ = lazy_surface(__name__, {
    "core": (
        "DYNAMIC", "BlockScheduler", "LeaseRecord", "PoolCollapse",
        "RetryPolicy", "SchedulerError", "SchedulerResult",
        "default_batch_size",
    ),
    "faults": ("FaultPlan", "current_fault_plan", "use_fault_plan"),
    "timeline": ("render_timeline",),
})
