"""The pass pipeline.

The compiler's stages run as named, registered passes over a
:class:`~repro.pipeline.context.PipelineContext`:

- :mod:`~repro.pipeline.passes`: the :class:`PassManager`, the six
  standard passes (``extract-refs`` ... ``map``) plus ``verify``, and
  :func:`run_pipeline`, the shared entry point behind ``build_plan``,
  the CLI, ``report.py``, ``selftest.py`` and the strategy selector;
- :mod:`~repro.pipeline.context`: :class:`PipelineConfig` (the one
  source of truth for strategy/duplication/elimination flags) and the
  artifact-carrying context;
- :mod:`~repro.pipeline.diagnostics`: structured
  ``Diagnostic(severity, code, message, loc)`` records;
- :mod:`~repro.pipeline.cache`: the content-addressed plan cache
  (in-memory LRU + optional on-disk store) keyed by
  :mod:`repro.lang.fingerprint`.
"""

from repro._lazy import lazy_surface

__getattr__, __dir__, __all__ = lazy_surface(__name__, {
    "cache": ("PLAN_CACHE", "MissReason", "PlanCache"),
    "context": ("PipelineConfig", "PipelineContext"),
    "diagnostics": ("Diagnostic", "DiagnosticBag", "Severity"),
    "passes": (
        "DEFAULT_MANAGER", "STANDARD_PASSES", "Pass", "PassManager",
        "PassOrderError", "PipelineError", "UnknownPassError",
        "run_pipeline",
    ),
})
