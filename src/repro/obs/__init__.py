"""Unified observability: structured tracing, metrics, exporters.

One subsystem sees a whole run end-to-end -- compile (pipeline passes,
plan-cache lookups), execute (engine resolution, per-block runs), and
simulate (machine distribution/compute phases):

- :mod:`~repro.obs.trace`: the hierarchical span tracer with a
  null-recorder fast path (disabled by default; near-zero overhead,
  carried by the ledger's ``obs.trace.null_span_ns`` and
  ``obs.trace.overhead_ratio``);
- :mod:`~repro.obs.metrics`: the counters/gauges/histograms registry
  that absorbs the ``Instrumentation`` / ``ParallelResult`` /
  ``MachineStats`` counter systems behind one API;
- :mod:`~repro.obs.export`: Chrome trace-event JSON (Perfetto-viewable),
  Prometheus-style text, JSON metrics dumps and a JSON-lines event log;
- :mod:`~repro.obs.schema`: the in-tree Chrome-trace schema check
  (``python -m repro.obs.schema trace.json``), used by CI;
- :mod:`~repro.obs.aggregate`: cross-process re-homing of worker
  tracers/registries (per-worker Chrome-trace lanes, merged counters);
- :mod:`~repro.obs.audit`: the communication audit -- static access
  replay, per-block footprints, violation attribution (Definition 1's
  ``r`` vectors), engine reconciliation, and the ASCII dashboard behind
  ``repro audit``;
- :mod:`~repro.obs.flight`: the always-on bounded flight recorder,
  dumped to a ``repro-blackbox-*.json`` post-mortem on failure and
  rendered by ``repro blackbox``;
- :mod:`~repro.obs.profile`: the thread-based sampling profiler behind
  ``--profile`` (collapsed-stack flamegraphs, Chrome sample tracks,
  per-subsystem attribution);
- :mod:`~repro.obs.top`: the periodic run-snapshot writer, the
  communication-optimality gauge and the live ``repro top`` dashboard.

Every CLI subcommand accepts ``--trace FILE``, ``--metrics``,
``--metrics-out FILE``, ``--events FILE`` and ``--profile FILE``; see
``docs/OBSERVABILITY.md`` for the full knob reference.
"""

from repro._lazy import lazy_surface
# eager: ``flight`` is also this package's submodule name, and the import
# system binds a loaded submodule over anything ``__getattr__`` could say
from repro.obs.flight import flight

__getattr__, __dir__, __all__ = lazy_surface(__name__, {
    "aggregate": ("WorkerObs", "capture_worker_obs", "merge_worker_obs"),
    "audit": (
        "AccessFootprint", "AuditReport", "AuditViolation",
        "EngineAuditRun", "audit_plan", "inject_violation",
        "render_audit_dashboard",
    ),
    "export": (
        "chrome_trace", "event_log_lines", "metrics_json",
        "prometheus_text", "write_chrome_trace", "write_event_log",
        "write_metrics",
    ),
    "metrics": (
        "METRICS", "Counter", "Gauge", "Histogram", "MetricsRegistry",
        "current_registry", "use_registry",
    ),
    "flight": (
        "FlightRecorder", "dump_blackbox", "latest_blackbox",
        "load_blackbox", "render_blackbox",
    ),
    "profile": ("SamplingProfiler",),
    "schema": ("CHROME_TRACE_SCHEMA", "validate_chrome_trace"),
    "top": (
        "SnapshotWriter", "comm_optimality", "current_writer",
        "render_top", "run_top",
    ),
    "trace": (
        "NULL_SPAN", "NULL_TRACER", "Event", "Span", "Tracer",
        "current_tracer", "use_tracer",
    ),
})
__all__.append("flight")
