"""The pass manager: named, registered, instrumented compiler passes.

The paper's flow (Secs. II-IV) runs as six standard passes over a
:class:`~repro.pipeline.context.PipelineContext`:

    extract-refs          LoopNest        -> ReferenceModel
    eliminate-redundancy  ReferenceModel  -> RedundancyAnalysis | None
    choose-space          model+redundancy-> SpaceBreakdown (Psi)
    partition             model+breakdown -> PartitionPlan
    transform             nest+plan       -> TransformedNest
    map                   tnest           -> grid + block assignment

plus an optional ``verify`` pass (parallel == sequential).  Each pass
declares its input/output artifacts; the manager validates ordering,
supports running a prefix (``upto="partition"``), skips passes whose
outputs were injected (e.g. a shared ``model``), and records every
execution as one coarse ``pass:<name>`` tracer span whose duration
feeds the ``pipeline.pass.seconds.<name>`` histogram.

:func:`run_pipeline` is the shared entry point behind ``build_plan``,
the CLI, ``report.py``, ``selftest.py`` and the strategy selector; it
also consults the content-addressed plan cache.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from dataclasses import replace as dataclasses_replace
from typing import Any, Callable, Optional, Sequence

from repro.analysis.dependence import is_fully_duplicable
from repro.analysis.redundancy import analyze_redundancy
from repro.analysis.references import NonUniformReferenceError, extract_references
from repro.core.partition import all_data_partitions, iteration_partition
from repro.core.strategy import partitioning_space
from repro.lang.ast import LoopNest
from repro.mapping.cyclic import assign_blocks
from repro.mapping.grid import shape_grid
from repro.obs.metrics import current_registry
from repro.obs.trace import current_tracer
from repro.pipeline import diagnostics as diag
from repro.pipeline.cache import PLAN_CACHE, PlanCache
from repro.pipeline.context import PipelineConfig, PipelineContext
from repro.transform.loopnest import transform_nest


class PipelineError(RuntimeError):
    """A pass could not run (bad configuration or missing artifact)."""


class UnknownPassError(KeyError):
    """A pass name that is not registered."""


class PassOrderError(ValueError):
    """A pass is placed before the passes producing its inputs."""


#: Artifacts every context starts with (not produced by any pass).
SEED_ARTIFACTS = frozenset({"nest"})


@dataclass(frozen=True)
class Pass:
    """One named pipeline stage with declared dataflow."""

    name: str
    inputs: tuple[str, ...]
    outputs: tuple[str, ...]
    run: Callable[[PipelineContext], None]
    description: str = ""


class PassManager:
    """An ordered, validated pass registry."""

    def __init__(self, passes: Sequence[Pass] = ()) -> None:
        self._passes: list[Pass] = []
        for p in passes:
            self.register(p)

    # -- registry ---------------------------------------------------------
    @property
    def passes(self) -> tuple[Pass, ...]:
        return tuple(self._passes)

    def names(self) -> list[str]:
        return [p.name for p in self._passes]

    def pass_index(self, name: str) -> int:
        for i, p in enumerate(self._passes):
            if p.name == name:
                return i
        raise UnknownPassError(name)

    def register(self, p: Pass) -> None:
        """Append ``p``."""
        if any(q.name == p.name for q in self._passes):
            raise ValueError(f"pass {p.name!r} already registered")
        self._passes.append(p)
        self.validate()

    def replace(self, name: str, p: Pass) -> None:
        """Swap the implementation of a registered pass."""
        self._passes[self.pass_index(name)] = p
        self.validate()

    # -- validation -------------------------------------------------------
    def validate(self) -> None:
        """Every input must come from the seed set or an earlier pass."""
        available = set(SEED_ARTIFACTS)
        for p in self._passes:
            missing = [a for a in p.inputs if a not in available]
            if missing:
                raise PassOrderError(
                    f"pass {p.name!r} needs {missing} but only "
                    f"{sorted(available)} are produced before it")
            available.update(p.outputs)

    def prefix(self, upto: Optional[str]) -> list[Pass]:
        """The passes run for ``upto`` (inclusive; ``None`` = all)."""
        if upto is None:
            return list(self._passes)
        return self._passes[: self.pass_index(upto) + 1]

    def produces_in_prefix(self, artifact: str, upto: Optional[str]) -> bool:
        return any(artifact in p.outputs for p in self.prefix(upto))

    def _schedule(self, upto: Optional[str]) -> list[Pass]:
        """The demand-driven schedule for ``upto``.

        With a target pass, earlier passes run only if their outputs are
        (transitively) needed by it -- ``upto="verify"`` does not drag
        the unrelated ``transform``/``map`` passes in.  Without a
        target, every pass runs.
        """
        chain = self.prefix(upto)
        if upto is None or not chain:
            return chain
        target = chain[-1]
        selected = [target]
        needed = set(target.inputs)
        for p in reversed(chain[:-1]):
            if needed & set(p.outputs):
                selected.append(p)
                needed |= set(p.inputs)
        return list(reversed(selected))

    # -- execution --------------------------------------------------------
    def run(self, ctx: PipelineContext, upto: Optional[str] = None,
            ) -> PipelineContext:
        """Run the (validated) schedule, skipping already-satisfied passes."""
        self.validate()
        tracer = current_tracer()
        registry = current_registry()
        span_attrs = {"config": ctx.config.describe(),
                      "nest": ctx.nest.name or "<anon>"}
        for p in self._schedule(upto):
            if p.outputs and all(ctx.has(a) for a in p.outputs):
                continue  # injected or cache-restored artifacts
            missing = [a for a in p.inputs
                       if not ctx.has(a) and a not in SEED_ARTIFACTS]
            if missing:
                raise PipelineError(
                    f"pass {p.name!r} is missing inputs {missing}")
            with tracer.span(f"pass:{p.name}", category="pipeline",
                             coarse=True, **span_attrs) as sp:
                p.run(ctx)
                sp.set(artifacts=sorted(ctx.artifacts))
            registry.observe(f"pipeline.pass.seconds.{p.name}", sp.seconds)
            produced = [a for a in p.outputs if not ctx.has(a)]
            if produced:
                raise PipelineError(
                    f"pass {p.name!r} did not produce {produced}")
            ctx.completed.append(p.name)
        return ctx


# ---------------------------------------------------------------------------
# the standard passes
# ---------------------------------------------------------------------------

def _pass_extract_refs(ctx: PipelineContext) -> None:
    try:
        ctx.put("model", extract_references(ctx.nest))
    except NonUniformReferenceError as exc:
        ctx.diagnose(diag.Severity.ERROR, diag.NONUNIFORM_REFERENCES,
                     str(exc), loc=ctx.nest.name or None)
        raise


def _pass_eliminate_redundancy(ctx: PipelineContext) -> None:
    if not ctx.config.eliminate_redundant:
        ctx.put("redundancy", None)
        return
    model = ctx.require("model")
    red = analyze_redundancy(model)
    total = model.space.size() * len(model.nest.statements)
    redundant = total - len(red.live)
    loc = ctx.nest.name or None
    if redundant == 0:
        ctx.diagnose(diag.Severity.NOTE, diag.NO_REDUNDANCY,
                     "redundancy elimination requested but every "
                     "computation is live; Psi is unchanged", loc=loc)
    else:
        ctx.diagnose(diag.Severity.NOTE, diag.REDUNDANCY_FOUND,
                     f"{redundant} of {total} computations are redundant; "
                     "strategies with elimination skip them (Sec. III.C)",
                     loc=loc)
    ctx.put("redundancy", red)


def _pass_choose_space(ctx: PipelineContext) -> None:
    model = ctx.require("model")
    cfg = ctx.config
    breakdown = partitioning_space(
        model,
        strategy=cfg.strategy,
        duplicate_arrays=(set(cfg.duplicate_arrays)
                          if cfg.duplicate_arrays is not None else None),
        eliminate_redundant=cfg.eliminate_redundant,
        redundancy=ctx.redundancy,
    )
    loc = ctx.nest.name or None
    if breakdown.is_fully_sequential():
        ctx.diagnose(
            diag.Severity.WARNING, diag.DEGENERATE_PSI,
            "Psi spans the whole iteration space, so only the trivial "
            "communication-free partition (a single block) exists; "
            "consider the duplicate strategy or redundancy elimination",
            loc=loc)
    elif breakdown.is_fully_parallel():
        ctx.diagnose(
            diag.Severity.NOTE, diag.FULLY_PARALLEL,
            "Psi is the zero space: every iteration is its own "
            "communication-free block", loc=loc)
    for name in sorted(breakdown.duplicated_arrays):
        if not is_fully_duplicable(model.arrays[name], model.space):
            ctx.diagnose(
                diag.Severity.NOTE, diag.PARTIAL_DUPLICATION,
                f"array {name} is not fully duplicable; its flow "
                "dependences keep contributing to Psi", loc=loc)
    ctx.put("breakdown", breakdown)


def _pass_partition(ctx: PipelineContext) -> None:
    from repro.core.plan import PartitionPlan

    model = ctx.require("model")
    breakdown = ctx.require("breakdown")
    blocks = iteration_partition(model.space, breakdown.psi)
    live = (breakdown.redundancy.live
            if breakdown.redundancy is not None else None)
    data_blocks = all_data_partitions(model, blocks, live=live)
    ctx.put("blocks", blocks)
    ctx.put("data_blocks", data_blocks)
    ctx.put("plan", PartitionPlan(
        nest=ctx.nest,
        model=model,
        breakdown=breakdown,
        blocks=blocks,
        data_blocks=data_blocks,
    ))


def _pass_transform(ctx: PipelineContext) -> None:
    plan = ctx.require("plan")
    ctx.put("tnest", transform_nest(ctx.nest, plan.psi))


def _pass_map(ctx: PipelineContext) -> None:
    if ctx.config.processors < 1:
        raise PipelineError(
            "the 'map' pass needs config.processors >= 1 "
            f"(got {ctx.config.processors})")
    tnest = ctx.require("tnest")
    grid = shape_grid(ctx.config.processors, tnest.k)
    ctx.put("grid", grid)
    ctx.put("assignment", assign_blocks(tnest, grid))


def _pass_verify(ctx: PipelineContext) -> None:
    from repro.runtime.verify import verify_plan

    plan = ctx.require("plan")
    scalars = ctx.config.scalars_dict()
    report = verify_plan(plan, scalars=scalars or None,
                         backend=ctx.config.backend)
    for name in {report.backend, *report.cross_checked}:
        current_registry().inc(f"engine:{name}")
    ctx.put("verification", report)


EXTRACT_REFS = Pass(
    name="extract-refs", inputs=("nest",), outputs=("model",),
    run=_pass_extract_refs,
    description="decompose array references into A[H i + c] form (Sec. II)")
ELIMINATE_REDUNDANCY = Pass(
    name="eliminate-redundancy", inputs=("model",), outputs=("redundancy",),
    run=_pass_eliminate_redundancy,
    description="redundant-computation analysis (Sec. III.C); no-op "
                "unless the config asks for elimination")
CHOOSE_SPACE = Pass(
    name="choose-space", inputs=("model", "redundancy"),
    outputs=("breakdown",), run=_pass_choose_space,
    description="combined partitioning space Psi for the strategy "
                "(Theorems 1-4)")
PARTITION = Pass(
    name="partition", inputs=("model", "breakdown"),
    outputs=("blocks", "data_blocks", "plan"), run=_pass_partition,
    description="iteration and data partitions + the PartitionPlan "
                "(Defs. 2-3)")
TRANSFORM = Pass(
    name="transform", inputs=("nest", "plan"), outputs=("tnest",),
    run=_pass_transform,
    description="loop transformation to forall form (Sec. IV)")
MAP = Pass(
    name="map", inputs=("tnest",), outputs=("grid", "assignment"),
    run=_pass_map,
    description="processor grid shaping + cyclic block assignment")
VERIFY = Pass(
    name="verify", inputs=("plan",), outputs=("verification",),
    run=_pass_verify,
    description="end-to-end parallel == sequential check")

STANDARD_PASSES = (EXTRACT_REFS, ELIMINATE_REDUNDANCY, CHOOSE_SPACE,
                   PARTITION, TRANSFORM, MAP, VERIFY)


#: Shared immutable-by-convention manager used when callers pass none.
DEFAULT_MANAGER = PassManager(STANDARD_PASSES)


# ---------------------------------------------------------------------------
# the shared entry point (with plan caching)
# ---------------------------------------------------------------------------

@dataclass
class _CachedResult:
    """What the plan cache stores: the plan plus its diagnostics."""

    plan: Any
    diagnostics: tuple = field(default_factory=tuple)


def _seed_from_cache(ctx: PipelineContext, entry: _CachedResult) -> None:
    plan = entry.plan
    # rebind to the caller's (structurally identical) nest/model objects
    # so `plan.nest is nest` / `plan.model is model` hold as for a fresh
    # build; everything expensive is shared with the cached plan
    model = ctx.get("model") if ctx.has("model") else plan.model
    if plan.nest is not ctx.nest or plan.model is not model:
        plan = dataclasses_replace(plan, nest=ctx.nest, model=model)
    ctx.put("model", model)
    ctx.put("redundancy", plan.breakdown.redundancy)
    ctx.put("breakdown", plan.breakdown)
    ctx.put("blocks", plan.blocks)
    ctx.put("data_blocks", plan.data_blocks)
    ctx.put("plan", plan)
    for d in entry.diagnostics:
        ctx.diagnostics.emit(d.severity, d.code, d.message, d.loc)


def run_pipeline(
    nest: LoopNest,
    config: Optional[PipelineConfig] = None,
    upto: Optional[str] = "partition",
    manager: Optional[PassManager] = None,
    model: Any = None,
    cache: Optional[PlanCache] = None,
) -> PipelineContext:
    """Run the pass pipeline on ``nest`` and return the context.

    ``upto`` names the last pass to run (inclusive); ``model`` injects a
    pre-extracted :class:`ReferenceModel` (the producing pass is then
    skipped).  With ``config.use_cache`` the content-addressed plan
    cache short-circuits everything up to and including ``partition``.
    """
    config = config or PipelineConfig()
    manager = manager or DEFAULT_MANAGER
    ctx = PipelineContext(nest=nest, config=config)
    if model is not None:
        ctx.put("model", model)

    use_cache = config.use_cache and manager.produces_in_prefix("plan", upto)
    key: Optional[tuple] = None
    if use_cache:
        cache = cache if cache is not None else PLAN_CACHE
        key = PlanCache.key_for(nest, config)
        entry = cache.get(key)
        if entry is not None:
            _seed_from_cache(ctx, entry)

    manager.run(ctx, upto=upto)

    if use_cache and key is not None and ctx.has("plan") and key not in cache:
        cache.put(key, _CachedResult(plan=ctx.plan,
                                     diagnostics=ctx.diagnostics.records))
    return ctx
