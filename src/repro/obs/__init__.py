"""Unified observability: one recorder, one registry, file sinks.

One subsystem sees a whole run end-to-end -- compile (pipeline passes,
plan-cache lookups), execute (engine resolution, per-block runs), and
simulate (machine distribution/compute phases):

- :mod:`~repro.obs.trace`: the one recorder -- the hierarchical span
  tracer (disabled by default: an unmarked span is a shared no-op, the
  ledger's ``obs.trace.null_span_ns``) whose ``coarse`` records always
  land in one bounded process-wide ring;
- :mod:`~repro.obs.metrics`: the counters/gauges/histograms registry
  (pass timings, cache counters, ``ParallelResult`` / ``MachineStats``
  publications) behind one API;
- :mod:`~repro.obs.export`: the sinks -- Chrome trace-event JSON
  (Perfetto-viewable) and a JSON-lines event log of the tracer,
  Prometheus-style text / JSON / the ``--timings`` table of the
  registry;
- :mod:`~repro.obs.schema`: the in-tree Chrome-trace schema check
  (``python -m repro.obs.schema trace.json``), used by CI;
- :mod:`~repro.obs.aggregate`: cross-process re-homing of worker
  tracers/registries (per-worker Chrome-trace lanes, merged counters);
- :mod:`~repro.obs.audit`: the communication audit -- the algebraic
  certificate (:mod:`~repro.obs.certificate`), the access replay behind
  it (fallback, per-block footprints, the oracle), violation attribution
  (Definition 1's ``r`` vectors), engine reconciliation, and the ASCII
  dashboard behind ``repro audit``;
- :mod:`~repro.obs.flight`: the third file sink -- the ring dumped to
  a ``repro-blackbox-*.json`` post-mortem on failure and rendered by
  ``repro blackbox``;
- :mod:`~repro.obs.profile`: the thread-based sampling profiler behind
  ``--profile`` (collapsed-stack flamegraphs, Chrome sample tracks,
  per-subsystem attribution).

Every CLI subcommand accepts ``--trace FILE``, ``--metrics``,
``--metrics-out FILE``, ``--events FILE`` and ``--profile FILE``; see
``docs/OBSERVABILITY.md`` for the full knob reference.
"""

from repro._lazy import lazy_surface

__getattr__, __dir__, __all__ = lazy_surface(__name__, {
    "aggregate": ("WorkerObs", "capture_worker_obs", "merge_worker_obs"),
    "audit": (
        "AccessFootprint", "AuditReport", "AuditViolation",
        "EngineAuditRun", "audit_plan", "inject_violation",
        "render_audit_dashboard",
    ),
    "export": (
        "chrome_trace", "event_log_lines", "metrics_json",
        "prometheus_text", "timing_table", "write_chrome_trace",
        "write_event_log", "write_metrics",
    ),
    "metrics": (
        "METRICS", "Counter", "Gauge", "Histogram", "MetricsRegistry",
        "current_registry", "use_registry",
    ),
    "flight": (
        "dump_blackbox", "latest_blackbox", "load_blackbox",
        "render_blackbox",
    ),
    "profile": ("SamplingProfiler",),
    "schema": ("CHROME_TRACE_SCHEMA", "validate_chrome_trace"),
    "trace": (
        "NULL_SPAN", "NULL_TRACER", "Event", "Span", "Tracer",
        "current_tracer", "use_tracer",
    ),
})
