"""Unified observability: one recorder, one registry, file sinks.

One subsystem sees a whole run end-to-end -- compile (pipeline passes,
plan-cache lookups), execute (engine resolution, per-block runs), and
simulate (machine distribution/compute phases):

- :mod:`~repro.obs.trace`: the one recorder -- the hierarchical span
  tracer (disabled by default: every span is a shared no-op, the
  ledger's ``obs.trace.null_span_ns``);
- :mod:`~repro.obs.metrics`: the counters/gauges registry (cache
  counters, ``ParallelResult`` / ``MachineStats`` publications) behind
  one API;
- :mod:`~repro.obs.export`: the run's one document -- a Chrome
  trace-event JSON (Perfetto-viewable) whose ``otherData`` carries the
  registry snapshot -- and its renderings: Prometheus text and the
  per-pass timing table of its ``pass:*`` spans.  The CLI writes it
  however the command ends, so a failed command's document is its
  post-mortem;
- :mod:`~repro.obs.schema`: the in-tree Chrome-trace schema check
  (``python -m repro.obs.schema trace.json``), used by CI;
- :mod:`~repro.obs.aggregate`: cross-process re-homing of worker
  tracers/registries (per-worker Chrome-trace lanes, merged counters);
- :mod:`~repro.obs.audit`: the communication audit -- one static
  verdict (the algebraic certificate, :mod:`~repro.obs.certificate`,
  plus the allocation walk) that codegen's check elision shares, the
  attribution of a refused plan's misses (Definition 1's ``r``
  vectors), engine reconciliation, and the ASCII
  dashboard behind ``repro audit``.

Every CLI subcommand accepts ``--trace FILE``; see
``docs/OBSERVABILITY.md`` for the full knob reference.
"""

from repro._lazy import lazy_surface

__getattr__, __dir__, __all__ = lazy_surface(__name__, {
    "aggregate": ("WorkerObs", "capture_worker_obs", "merge_worker_obs"),
    "audit": (
        "AuditReport", "AuditViolation",
        "EngineAuditRun", "audit_plan", "inject_violation",
        "render_audit_dashboard",
    ),
    "export": (
        "chrome_trace", "prometheus_text", "timing_table",
        "write_chrome_trace",
    ),
    "metrics": (
        "METRICS", "Counter", "Gauge", "MetricsRegistry",
        "current_registry", "use_registry",
    ),
    "schema": ("CHROME_TRACE_SCHEMA", "validate_chrome_trace"),
    "trace": (
        "NULL_SPAN", "NULL_TRACER", "Event", "Span", "Tracer",
        "current_tracer", "use_tracer",
    ),
})
