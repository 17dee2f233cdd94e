"""The nest-level public API: one session, one options object, one result shape.

Two layers.  The plan-level functions (``build_plan``,
``run_sequential``, ``run_parallel``, ``verify_plan``, ``audit_plan``,
``run_on_machine``) take a :class:`~repro.core.plan.PartitionPlan` --
a custom ``block_to_pid``, a sabotaged plan.  This module is the layer
above them, for callers that hold a *nest*:

- :class:`RunOptions` -- one dataclass holding the execution kwargs
  (backend, chaos, tracing) the plan-level functions share;
- :class:`Session` -- a facade that owns a nest, a plan, scoped
  observability recorders, and the options, and drives the whole
  pipeline::

      from repro.api import Session

      s = Session("L1", strategy="duplicate", chaos="crash-prob=0.2")
      s.plan()
      result = s.run(backend="multiprocess")
      assert s.verify().ok and s.audit().ok

- the **Summary protocol** -- every result the facade returns
  (:class:`~repro.runtime.parallel.ParallelResult`,
  :class:`~repro.runtime.verify.VerificationReport`,
  :class:`~repro.obs.audit.AuditReport`,
  :class:`~repro.runtime.machine_run.MachineRun`) exposes ``.ok``,
  ``.summary()`` and ``.to_json()``, so callers (and the CLI, and the
  report) render any of them uniformly.

See ``docs/API.md``.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, replace
from typing import Optional, Protocol, Union, runtime_checkable

from repro.core.plan import PartitionPlan
from repro.core.strategy import Strategy
from repro.lang.ast import LoopNest
from repro.runtime.scheduler.faults import FaultPlan


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
    ``backend``, the ``chaos`` fault plan, and whether tracing is on."""

    #: engine backend name (None = the default, ``interp``)
    backend: Optional[str] = None
    #: fault plan (or spec string) scoped over parallel executions
    chaos: Union[FaultPlan, str, None] = None
    #: record spans/events (Session scopes a Tracer accordingly)
    trace: bool = False

    def __post_init__(self) -> None:
        # normalize a spec string eagerly so errors surface at build time
        object.__setattr__(self, "chaos", FaultPlan.parse(self.chaos))

    def with_(self, **updates) -> "RunOptions":
        """A copy with the given fields replaced."""
        return replace(self, **updates)


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
        chaos: Union[FaultPlan, str, None] = None,
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
            options = RunOptions(backend=backend, chaos=chaos, trace=trace)
        else:
            if backend is not None:
                options = options.with_(backend=backend)
            if chaos is not None:
                options = options.with_(chaos=chaos)
            if trace:
                options = options.with_(trace=True)
        self.options = options
        self.eliminate_redundant = eliminate_redundant
        self.duplicate_arrays = (frozenset(duplicate_arrays)
                                 if duplicate_arrays is not None else None)
        self.scalars = dict(scalars) if scalars else {}
        # registry/tracer/pool are injectable so an embedding host (the
        # CLI under --trace/--metrics, the serving layer sharing one
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
        # spawn per run; closed (with any cached plan segment) by close().
        # An injected pool is shared -- close() leaves it running.
        from repro.runtime.pool import WorkerPool

        self._owns_pool = pool is None
        self._pool = pool if pool is not None else WorkerPool()
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
            stack.enter_context(use_pool(self._pool))
        return stack

    # -- lifecycle --------------------------------------------------------
    @property
    def pool(self):
        """The session's persistent :class:`~repro.runtime.pool.WorkerPool`."""
        return self._pool

    def close(self) -> None:
        """Release session resources: shut the worker pool down and
        unlink the plan's cached shared-memory segment (if any).

        Idempotent; a closed session still runs, it just stops scoping
        the persistent pool (runs fall back to ephemeral pools).
        """
        self._closed = True
        if self._owns_pool:
            self._pool.shutdown()
        # a plan segment exists only if the shared-memory store made
        # one, i.e. only if its module (and with it numpy) is loaded
        store = sys.modules.get("repro.runtime.blockstore.store")
        if self._plan is not None and store is not None:
            store.release_plan_segment(self._plan)

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- the pipeline -----------------------------------------------------
    def plan(self) -> PartitionPlan:
        """Build (once) and return the partition plan.

        Runs the pass pipeline (through the content-addressed plan
        cache) and keeps the build's diagnostics on
        :attr:`diagnostics`, so embedding hosts (CLI, serving layer)
        can render them.
        """
        if self._plan is None:
            from repro.pipeline.context import PipelineConfig
            from repro.pipeline.passes import run_pipeline

            with self._scope(), self.tracer.span(
                    "session.plan", category="session", coarse=True,
                    case=self.nest.name or "?",
                    strategy=self.strategy.value):
                config = PipelineConfig(
                    strategy=self.strategy,
                    duplicate_arrays=self.duplicate_arrays,
                    eliminate_redundant=self.eliminate_redundant,
                    backend=self.options.backend,
                )
                ctx = run_pipeline(self.nest, config, upto="partition")
                self.diagnostics = ctx.diagnostics
                self._plan = ctx.plan
        return self._plan

    def run(self, backend: Optional[str] = None, **kwargs):
        """Execute the plan in parallel; returns a
        :class:`~repro.runtime.parallel.ParallelResult`."""
        from repro.runtime.parallel import run_parallel

        with self._scope(), self.tracer.span(
                "session.run", category="session", coarse=True,
                case=self.nest.name or "?",
                backend=backend or self.options.backend or "default"):
            return run_parallel(self.plan(), scalars=self.scalars,
                                backend=backend, options=self.options,
                                **kwargs)

    def run_sequential(self):
        """Run the nest sequentially (the golden model, whatever the
        session's backend); returns the final arrays."""
        from repro.runtime.arrays import make_arrays
        from repro.runtime.seq import run_sequential

        plan = self.plan()
        with self._scope():
            arrays = make_arrays(plan.model)
            return run_sequential(plan.nest, arrays, scalars=self.scalars,
                                  space=plan.model.space)

    def verify(self, backend: Optional[str] = None, **kwargs):
        """Parallel == sequential, zero communication; returns a
        :class:`~repro.runtime.verify.VerificationReport`."""
        from repro.runtime.verify import verify_plan

        with self._scope():
            return verify_plan(self.plan(), scalars=self.scalars,
                               backend=backend, options=self.options,
                               **kwargs)

    def audit(self, plan: Optional[PartitionPlan] = None, **kwargs):
        """Certify communication-freedom; returns an
        :class:`~repro.obs.audit.AuditReport`.

        ``plan`` overrides the session's own plan -- the CLI's
        ``--inject-violation`` negative control audits a sabotaged
        copy without poisoning the session.
        """
        from repro.obs.audit import audit_plan

        with self._scope():
            return audit_plan(plan if plan is not None else self.plan(),
                              scalars=self.scalars,
                              registry=self.registry, **kwargs)

    def machine(self, p: int = 16, **kwargs):
        """Run on the simulated multicomputer; returns a
        :class:`~repro.runtime.machine_run.MachineRun`."""
        from repro.runtime.machine_run import run_on_machine

        with self._scope():
            return run_on_machine(self.plan(), p, scalars=self.scalars,
                                  options=self.options, **kwargs)

    def report(self, p: int = 16, **kwargs):
        """The full compile report for this nest."""
        from repro.report import compile_report

        with self._scope():
            return compile_report(self.nest, p=p,
                                  scalars=self.scalars or None, **kwargs)

    # -- observability ----------------------------------------------------
    def metrics(self) -> dict:
        """A snapshot of the session's metrics registry."""
        return self.registry.snapshot()
