"""The nest-level public API: one session, one options object, one result shape.

Two layers.  The plan-level functions (``build_plan``,
``run_sequential``, ``run_parallel``, ``verify_plan``, ``audit_plan``,
``run_on_machine``) take a :class:`~repro.core.plan.PartitionPlan` --
a custom ``block_to_pid``, a sabotaged plan.  This module is the layer
above them, for callers that hold a *nest*:

- :class:`RunOptions` -- one dataclass holding the execution kwargs
  (backend, tracing) the plan-level functions share;
- :class:`Session` -- a facade that owns a nest, a plan, scoped
  observability recorders, and the options, and drives the whole
  pipeline::

      from repro.api import Session

      s = Session("L1", strategy="duplicate")
      s.plan()
      result = s.run(backend="multiprocess")
      assert s.verify().ok and s.audit().ok

- the **Summary protocol** -- every result the facade returns
  (:class:`~repro.core.plan.PartitionPlan`,
  :class:`~repro.runtime.parallel.ParallelResult`,
  :class:`~repro.runtime.verify.VerificationReport`,
  :class:`~repro.obs.audit.AuditReport`,
  :class:`~repro.runtime.machine_run.MachineRun`,
  :class:`~repro.report.CompileReport`) exposes ``.ok``,
  ``.summary()`` and ``.to_json()``, so callers (and the CLI, and the
  report) render any of them uniformly;
- :data:`OPS` -- the op table: ``plan`` / ``run`` / ``verify`` /
  ``audit`` / ``report``, one :class:`Op` row each (the method, the
  backend rule, the failure line), which the CLI and the serving layer
  both run, and
  :func:`input_error`, which tells their caller's mistakes from crashes.

See ``docs/API.md``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Protocol, Union, runtime_checkable

from repro.core.plan import PartitionPlan
from repro.core.strategy import Strategy, UnknownArrayError
from repro.lang.ast import LoopNest


@runtime_checkable
class Summary(Protocol):
    """What every result object speaks: a verdict, a line, a dict."""

    @property
    def ok(self) -> bool: ...

    def summary(self) -> str: ...

    def to_json(self) -> dict: ...


@dataclass(frozen=True)
class RunOptions:
    """Execution options shared by every entry point: the engine
    ``backend`` and whether tracing is on."""

    #: engine backend name (None = the default, ``interp``)
    backend: Optional[str] = None
    #: record spans/events (Session scopes a Tracer accordingly)
    trace: bool = False


def _coerce_nest(nest_or_source: Union[LoopNest, str]) -> LoopNest:
    """A LoopNest from a nest, a source string, or a catalog name."""
    if isinstance(nest_or_source, LoopNest):
        return nest_or_source
    if not isinstance(nest_or_source, str):
        raise TypeError(
            f"expected a LoopNest, source text, or catalog name; got "
            f"{type(nest_or_source).__name__}")
    from repro.lang.catalog import ALL_LOOPS

    key = nest_or_source.strip()
    by_name = {name.lower(): factory for name, factory in ALL_LOOPS.items()}
    if key.lower() in by_name:
        return by_name[key.lower()]()
    from repro.lang.parser import parse

    return parse(nest_or_source)


class Session:
    """One nest, one plan, one set of options, one place to run it all.

    The session lazily builds (and caches) the partition plan, scopes
    its own observability recorders over every operation, and forwards
    :class:`RunOptions` to the plan-level functions, so no call repeats
    the kwargs.
    """

    def __init__(
        self,
        nest_or_source: Union[LoopNest, str],
        strategy: Union[Strategy, str] = Strategy.NONDUPLICATE,
        *,
        backend: Optional[str] = None,
        trace: bool = False,
        options: Optional[RunOptions] = None,
        eliminate_redundant: bool = False,
        duplicate_arrays=None,
        scalars: Optional[dict] = None,
        registry=None,
        tracer=None,
        pool=None,
    ) -> None:
        from repro.obs.metrics import MetricsRegistry
        from repro.obs.trace import Tracer

        self.nest = _coerce_nest(nest_or_source)
        self.strategy = Strategy(strategy)
        if options is None:
            options = RunOptions(backend=backend, trace=trace)
        else:
            if backend is not None:
                options = replace(options, backend=backend)
            if trace:
                options = replace(options, trace=True)
        self.options = options
        self.eliminate_redundant = eliminate_redundant
        self.duplicate_arrays = (frozenset(duplicate_arrays)
                                 if duplicate_arrays is not None else None)
        self.scalars = dict(scalars) if scalars else {}
        # registry/tracer/pool are injectable so an embedding host (the
        # CLI under --trace, the serving layer sharing one
        # registry and one warm pool across sessions) can see what the
        # session records; by default each session owns fresh ones
        self.tracer = tracer if tracer is not None \
            else Tracer(enabled=options.trace)
        self.registry = registry if registry is not None \
            else MetricsRegistry()
        #: diagnostics of the last plan build (a DiagnosticBag), or None
        self.diagnostics = None
        self._plan: Optional[PartitionPlan] = None
        # one persistent worker pool for the session: multiprocess runs
        # reuse warm workers across run() calls instead of paying a pool
        # spawn per run; closed by close().
        # An injected pool is shared -- close() leaves it running.
        from repro.runtime.pool import WorkerPool

        self._owns_pool = pool is None
        #: the persistent :class:`~repro.runtime.pool.WorkerPool`
        self.pool = pool if pool is not None else WorkerPool()
        self._closed = False

    # -- scoping ----------------------------------------------------------
    def _scope(self):
        from contextlib import ExitStack

        from repro.obs.metrics import use_registry
        from repro.obs.trace import use_tracer
        from repro.runtime.pool import use_pool

        stack = ExitStack()
        stack.enter_context(use_tracer(self.tracer))
        stack.enter_context(use_registry(self.registry))
        if not self._closed:
            stack.enter_context(use_pool(self.pool))
        return stack

    # -- lifecycle --------------------------------------------------------
    def close(self) -> None:
        """Release session resources: shut the worker pool down.

        Idempotent; a closed session still runs, it just stops scoping
        the persistent pool (runs fall back to ephemeral pools).
        """
        self._closed = True
        if self._owns_pool:
            self.pool.shutdown()

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- the pipeline -----------------------------------------------------
    def _config(self, processors: int = 0):
        """The pass pipeline's configuration of this session's plan."""
        from repro.pipeline.context import PipelineConfig

        return PipelineConfig(strategy=self.strategy,
                              duplicate_arrays=self.duplicate_arrays,
                              eliminate_redundant=self.eliminate_redundant,
                              processors=processors,
                              backend=self.options.backend)

    def plan(self) -> PartitionPlan:
        """Build (once) and return the partition plan.

        Runs the pass pipeline (through the content-addressed plan
        cache) and keeps the build's diagnostics on
        :attr:`diagnostics`, so embedding hosts (CLI, serving layer)
        can render them.
        """
        if self._plan is None:
            from repro.pipeline.passes import run_pipeline

            with self._scope(), self.tracer.span(
                    "session.plan", category="session",
                    case=self.nest.name or "?",
                    strategy=self.strategy.value):
                ctx = run_pipeline(self.nest, self._config(),
                                   upto="partition")
                self.diagnostics = ctx.diagnostics
                self._plan = ctx.plan
        return self._plan

    def run(self, backend: Optional[str] = None, **kwargs):
        """Execute the plan in parallel; returns a
        :class:`~repro.runtime.parallel.ParallelResult`."""
        from repro.runtime.parallel import run_parallel

        with self._scope(), self.tracer.span(
                "session.run", category="session",
                case=self.nest.name or "?",
                backend=backend or self.options.backend or "default"):
            return run_parallel(self.plan(), scalars=self.scalars,
                                backend=backend, options=self.options,
                                **kwargs)

    def verify(self, backend: Optional[str] = None, **kwargs):
        """Parallel == sequential, zero communication; returns a
        :class:`~repro.runtime.verify.VerificationReport`."""
        from repro.runtime.verify import verify_plan

        with self._scope():
            return verify_plan(self.plan(), scalars=self.scalars,
                               backend=backend, options=self.options,
                               **kwargs)

    def audit(self, plan: Optional[PartitionPlan] = None,
              backends: Optional[list] = None, **kwargs):
        """Certify communication-freedom; returns an
        :class:`~repro.obs.audit.AuditReport`.

        ``plan`` overrides the session's own plan -- the CLI's
        ``--inject-violation`` negative control audits a sabotaged
        copy without poisoning the session.  ``backends`` lists the
        engines to reconcile: by default the session's backend, the one
        :meth:`run` and :meth:`verify` use; ``[]`` is the static audit.
        """
        from repro.obs.audit import audit_plan

        if backends is None:
            backends = [self.options.backend]
        with self._scope():
            return audit_plan(plan if plan is not None else self.plan(),
                              scalars=self.scalars, backends=backends,
                              registry=self.registry, **kwargs)

    def machine(self, p: int = 16, **kwargs):
        """Run on the simulated multicomputer; returns a
        :class:`~repro.runtime.machine_run.MachineRun`."""
        from repro.runtime.machine_run import run_on_machine

        with self._scope():
            return run_on_machine(self.plan(), p, scalars=self.scalars,
                                  options=self.options, **kwargs)

    def report(self, p: int = 16, sections=None,
               backend: Optional[str] = None):
        """The plan's derivation on a ``p``-processor machine as named
        sections (default: all); returns a
        :class:`~repro.report.CompileReport`."""
        from repro.report import compile_report

        with self._scope():
            return compile_report(self, self._config(processors=p),
                                  sections, backend=backend)


@dataclass(frozen=True)
class Op:
    """One row of the op table, which the CLI and the wire both run.

    ``method`` is the :class:`Session` method, looked up when the op
    runs (a patched ``Session.verify`` is the one that runs);
    ``backends`` the backend rule: None (takes none), ``"one"`` (a
    registry name) or ``"all"`` (a name, or ``all``: every available
    tier).  The verdict is the result's Summary ``ok``; a failed one
    reads ``"<failure>: <summary>"``.
    """

    method: str
    backends: Optional[str]
    failure: str

    def refusal(self, backend: Optional[str]) -> Optional[str]:
        """Why this op may not be asked for ``backend``, or None."""
        if backend is None:
            return None
        if self.backends is None:
            return f"{self.method} takes no backend (got {backend!r})"
        from repro.runtime.engine.base import backend_names

        names, every = backend_names(), self.backends == "all"
        if backend.strip().lower() in names or (every and backend == "all"):
            return None
        known = names + ["all"] if every else names
        return f"unknown backend {backend!r}; known: {', '.join(known)}"

    def __call__(self, session: Session, backend: Optional[str] = None,
                 **kwargs) -> Summary:
        """Run the op; no ``backend`` is the session's default."""
        if backend is not None and self.method == "audit":
            from repro.runtime.engine.base import available_backends

            # audit_plan reconciles a list of engines
            kwargs["backends"] = (available_backends() if backend == "all"
                                  else [backend])
        elif backend is not None:
            kwargs["backend"] = backend
        return getattr(session, self.method)(**kwargs)

    def reason(self, result: Summary) -> Optional[str]:
        """The failure line of ``result``, or None when it is ok."""
        return None if result.ok else f"{self.failure}: {result.summary()}"


#: The op table both front ends (``repro.cli``, ``repro.serve``) run.
OPS: dict[str, Op] = {
    "plan": Op("plan", None, "plan failed"),
    "run": Op("run", "one", "run failed"),
    "verify": Op("verify", "all", "verification failed"),
    "audit": Op("audit", "all", "audit violation"),
    "report": Op("report", "all", "report verification failed"),
}


def input_error(exc: BaseException) -> Optional[str]:
    """The one-line reason if ``exc`` is the caller's input at fault --
    a nest that does not lex, parse or fit the model, an unbound scalar,
    an array to duplicate the nest lacks, an environment variable that
    does not parse -- else None: a crash."""
    from repro.analysis import NonUniformReferenceError
    from repro.config import KnobError
    from repro.lang import LexError, ParseError
    from repro.runtime.seq import UnboundScalarError

    errors = (LexError, ParseError, NonUniformReferenceError,
              UnboundScalarError, UnknownArrayError, KnobError)
    return str(exc) if isinstance(exc, errors) else None
