"""The communication audit: certify zero cross-block accesses.

The paper's guarantee (Theorems 1-4) is that a partition built on
``Psi = span(X_1 ∪ ... ∪ X_k)`` needs *no* interprocessor communication:
every element a block touches lives in that block's data blocks.  The
auditor checks the guarantee on the concrete program, two ways:

**Static replay.**  Access coordinates are data-independent -- every
reference is ``A[H i + c]``, so the exact per-block read/write footprint
follows from the iteration blocks and the reference model alone,
identically for every execution engine.  The replay walks each block's
iterations (restricted to live computations under redundancy
elimination), computes each touched element, and classifies it against
the block's allocated data blocks.  Each cross-block access is
*attributed*: which reference touched the element, which block owns it,
through which owner reference -- and the escaping vectors, the
data-referenced vector ``r = c - c'`` (Definition 1) and the iteration
offset ``delta = i - i'``, with the verdict ``delta ∉ Psi`` naming
exactly why the partition missed it.

**Engine reconciliation.**  Each requested engine then runs the plan
for real; the auditor checks the run completed without a
:class:`~repro.machine.memory.RemoteAccessError`, touched zero remote
elements, and that its memory counters equal the static totals (reads,
writes, executed iterations).  A plan is *certified* when the static
replay finds zero cross-block accesses and every engine run reconciles.
The multiprocess engine reconciles on both lease paths: shared-memory
store workers count reads/writes per block with the compiled tier's
exact formulas and the scheduler merges them into the same per-block
memory counters the by-value path fills, so the static totals match
regardless of how the leases traveled.

:func:`inject_violation` builds a deliberately broken variant of a plan
(a finer partition than ``Psi`` allows, with single-owner data blocks)
so the failure path -- attribution, engine aborts, non-zero exit --
stays exercised.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Mapping, Optional, Sequence

from repro.core.partition import DataBlock, block_index_map, iteration_partition
from repro.core.plan import PartitionPlan
from repro.core.strategy import Strategy
from repro.machine.memory import RemoteAccessError
from repro.obs.metrics import MetricsRegistry, current_registry
from repro.obs.trace import Span, current_tracer

Coords = tuple[int, ...]

#: (strategy, eliminate_redundant) -> the theorem certifying the plan.
THEOREMS: dict[tuple[Strategy, bool], int] = {
    (Strategy.NONDUPLICATE, False): 1,
    (Strategy.DUPLICATE, False): 2,
    (Strategy.NONDUPLICATE, True): 3,
    (Strategy.DUPLICATE, True): 4,
}


@dataclass
class AccessFootprint:
    """What one block actually touches of one array (static replay)."""

    block: int
    array: str
    reads: int = 0
    writes: int = 0
    read_elements: set[Coords] = field(default_factory=set)
    write_elements: set[Coords] = field(default_factory=set)
    #: accesses to elements *outside* the block's data block
    cross: int = 0

    @property
    def accesses(self) -> int:
        return self.reads + self.writes

    @property
    def elements(self) -> set[Coords]:
        return self.read_elements | self.write_elements


@dataclass(frozen=True)
class AuditViolation:
    """One cross-block access, attributed per Definition 1.

    ``r`` is the data-referenced vector ``c - c'`` between the violating
    reference and the owner's reference; ``delta = i - i'`` the
    iteration offset connecting the two computations.  For a genuine
    violation ``delta ∉ Psi`` -- the partition split two iterations the
    reference pattern couples.
    """

    block: int
    array: str
    iteration: Coords
    element: Coords
    reference: str
    is_write: bool
    owner_block: Optional[int]
    owner_iteration: Optional[Coords]
    owner_reference: Optional[str]
    r: Optional[Coords]
    delta: Optional[Coords]
    delta_in_psi: Optional[bool]

    def describe(self) -> str:
        kind = "write" if self.is_write else "read"
        head = (f"block {self.block} @ it{list(self.iteration)}: remote {kind} "
                f"of {self.array}{list(self.element)} via {self.reference}")
        if self.owner_reference is None:
            owner = (f"owned by block {self.owner_block}"
                     if self.owner_block is not None else "owned by no block")
            return f"{head} -- {owner}"
        psi = "yes" if self.delta_in_psi else "no"
        return (f"{head} -- owner block {self.owner_block} @ "
                f"it{list(self.owner_iteration)} via {self.owner_reference}; "
                f"r = {list(self.r)}, delta = {list(self.delta)} "
                f"(delta in Psi: {psi})")


@dataclass
class EngineAuditRun:
    """One engine's run of the plan, reconciled against the static replay."""

    backend: str                 # requested backend name (or "default")
    resolved: str                # engine that actually ran
    completed: bool
    aborted: Optional[str] = None  # RemoteAccessError message, if any
    reads: int = 0
    writes: int = 0
    executed_iterations: int = 0
    remote_reads: int = 0
    remote_writes: int = 0
    matches_static: bool = False

    @property
    def remote_accesses(self) -> int:
        return self.remote_reads + self.remote_writes

    @property
    def ok(self) -> bool:
        return self.completed and self.remote_accesses == 0 and self.matches_static


@dataclass
class AuditReport:
    """The full audit: footprints, violations, engine reconciliation."""

    plan: PartitionPlan
    footprints: dict[tuple[int, str], AccessFootprint]
    violations: list[AuditViolation]
    cross_block_accesses: int        # total (violations above are capped)
    total_reads: int
    total_writes: int
    executed_computations: int
    executed_iterations: int
    reference_counts: dict[str, int]
    element_counts: dict[str, dict[Coords, int]]
    engine_runs: dict[str, EngineAuditRun] = field(default_factory=dict)

    @property
    def theorem(self) -> int:
        return THEOREMS[(self.plan.strategy,
                         self.plan.breakdown.eliminate_redundant)]

    @property
    def total_accesses(self) -> int:
        return self.total_reads + self.total_writes

    @property
    def communication_free(self) -> bool:
        """Static verdict: did the replay find zero cross-block accesses?"""
        return self.cross_block_accesses == 0

    @property
    def certified(self) -> bool:
        """Static verdict *and* every engine run reconciled."""
        return self.communication_free and all(
            r.ok for r in self.engine_runs.values())

    @property
    def ok(self) -> bool:
        """Summary-protocol alias for :attr:`certified`."""
        return self.certified

    def summary(self) -> str:
        """One-line verdict (the Summary protocol)."""
        return self.verdict()

    def to_json(self) -> dict:
        """Summary-protocol alias for :meth:`to_dict`."""
        return self.to_dict()

    def theorem_label(self) -> str:
        extra = (", redundancy-eliminated"
                 if self.plan.breakdown.eliminate_redundant else "")
        return f"Theorem {self.theorem} ({self.plan.strategy.value}{extra})"

    def verdict(self) -> str:
        runs = list(self.engine_runs.values())
        if self.certified:
            engines = (f"; {len(runs)}/{len(runs)} engine runs reconciled"
                       if runs else "")
            return (f"CERTIFIED communication-free under {self.theorem_label()}"
                    f": 0 cross-block accesses in {self.total_accesses} "
                    f"accesses{engines}")
        if self.communication_free:
            bad = [r for r in runs if not r.ok]
            return (f"NOT CERTIFIED: static replay is clean but "
                    f"{len(bad)}/{len(runs)} engine runs failed to reconcile "
                    f"({', '.join(r.resolved for r in bad)})")
        v = self.violations[0] if self.violations else None
        head = (f"VIOLATED: {self.cross_block_accesses} cross-block "
                f"accesses in {self.total_accesses} accesses")
        return f"{head}; first: {v.describe()}" if v else head

    def to_dict(self) -> dict:
        """JSON-ready representation (sets become sorted lists)."""
        return {
            "loop": self.plan.nest.name,
            "strategy": self.plan.strategy.value,
            "eliminate_redundant": self.plan.breakdown.eliminate_redundant,
            "theorem": self.theorem,
            "blocks": len(self.plan.blocks),
            "reads": self.total_reads,
            "writes": self.total_writes,
            "executed_computations": self.executed_computations,
            "executed_iterations": self.executed_iterations,
            "cross_block_accesses": self.cross_block_accesses,
            "communication_free": self.communication_free,
            "certified": self.certified,
            "violations": [
                {
                    "block": v.block, "array": v.array,
                    "iteration": list(v.iteration),
                    "element": list(v.element),
                    "reference": v.reference, "is_write": v.is_write,
                    "owner_block": v.owner_block,
                    "owner_iteration": (list(v.owner_iteration)
                                        if v.owner_iteration else None),
                    "owner_reference": v.owner_reference,
                    "r": list(v.r) if v.r is not None else None,
                    "delta": list(v.delta) if v.delta is not None else None,
                    "delta_in_psi": v.delta_in_psi,
                }
                for v in self.violations
            ],
            "engine_runs": {
                name: {
                    "backend": r.backend, "resolved": r.resolved,
                    "completed": r.completed, "aborted": r.aborted,
                    "reads": r.reads, "writes": r.writes,
                    "executed_iterations": r.executed_iterations,
                    "remote_reads": r.remote_reads,
                    "remote_writes": r.remote_writes,
                    "matches_static": r.matches_static, "ok": r.ok,
                }
                for name, r in self.engine_runs.items()
            },
            "verdict": self.verdict(),
        }

    def publish(self, registry: Optional[MetricsRegistry] = None) -> None:
        """Publish the audit outcome as ``audit.*`` metrics."""
        reg = registry if registry is not None else current_registry()
        reg.inc("audit.runs")
        reg.inc("audit.engine_runs", len(self.engine_runs))
        reg.set("audit.accesses", self.total_accesses)
        reg.set("audit.cross_block_accesses", self.cross_block_accesses)
        reg.set("audit.certified", 1 if self.certified else 0)
        reg.set("audit.theorem", self.theorem)


def _attribute(plan: PartitionPlan, info, block, it: Coords, ref,
               element: Coords, indices) -> AuditViolation:
    """Name the owner of a remotely-touched element and the escaping vectors."""
    owners = plan.owners_of_element(info.name, element)
    live = plan.live
    # prefer the owner's *write* reference: that pairing is the flow
    # dependence the paper's data-referenced vectors model
    refs = sorted(info.references,
                  key=lambda r2: (not r2.is_write, r2.stmt_index, r2.slot))
    for ob in owners:
        if ob == block.index:
            continue
        for it2 in plan.blocks[ob].iterations:
            for ref2 in refs:
                if live is not None and (ref2.stmt_index, it2) not in live:
                    continue
                if info.element_at(it2, ref2.c) != element:
                    continue
                delta = tuple(a - b for a, b in zip(it, it2))
                r = tuple(a - b for a, b in zip(ref.c, ref2.c))
                return AuditViolation(
                    block=block.index, array=info.name, iteration=tuple(it),
                    element=element, reference=ref.describe(indices),
                    is_write=ref.is_write, owner_block=ob,
                    owner_iteration=tuple(it2),
                    owner_reference=ref2.describe(indices), r=r, delta=delta,
                    delta_in_psi=delta in plan.psi,
                )
    return AuditViolation(
        block=block.index, array=info.name, iteration=tuple(it),
        element=element, reference=ref.describe(indices),
        is_write=ref.is_write,
        owner_block=owners[0] if owners else None, owner_iteration=None,
        owner_reference=None, r=None, delta=None, delta_in_psi=None,
    )


def _refs_by_stmt(model) -> dict[int, list]:
    """statement index -> its ``(info, ref)`` pairs."""
    out: dict[int, list] = {}
    for info in model.arrays.values():
        for ref in info.references:
            out.setdefault(ref.stmt_index, []).append((info, ref))
    return out


def _static_replay(plan: PartitionPlan, max_detail: int) -> AuditReport:
    model = plan.model
    live = plan.live
    indices = model.nest.indices
    nstmts = len(model.nest.statements)
    # pretty-print each reference once, not once per access
    refs_by_stmt = {
        k: [(info, ref, ref.describe(indices)) for info, ref in pairs]
        for k, pairs in _refs_by_stmt(model).items()}

    footprints: dict[tuple[int, str], AccessFootprint] = {}
    element_counts: dict[str, dict[Coords, int]] = {
        name: {} for name in model.arrays}
    reference_counts: dict[str, int] = {}
    violations: list[AuditViolation] = []
    cross = total_reads = total_writes = 0
    executed_comps = executed_iters = 0

    for b in plan.blocks:
        alloc = {name: plan.data_blocks[name][b.index].elements
                 for name in model.arrays}
        for name in model.arrays:
            footprints[(b.index, name)] = AccessFootprint(block=b.index,
                                                          array=name)
        for it in b.iterations:
            ran = False
            for k in range(nstmts):
                if live is not None and (k, it) not in live:
                    continue
                ran = True
                executed_comps += 1
                for info, ref, d in refs_by_stmt.get(k, ()):
                    e = info.element_at(it, ref.c)
                    fp = footprints[(b.index, info.name)]
                    if ref.is_write:
                        fp.writes += 1
                        fp.write_elements.add(e)
                        total_writes += 1
                    else:
                        fp.reads += 1
                        fp.read_elements.add(e)
                        total_reads += 1
                    counts = element_counts[info.name]
                    counts[e] = counts.get(e, 0) + 1
                    reference_counts[d] = reference_counts.get(d, 0) + 1
                    if e not in alloc[info.name]:
                        cross += 1
                        if len(violations) < max_detail:
                            violations.append(
                                _attribute(plan, info, b, it, ref, e, indices))
            if ran:
                executed_iters += 1

    return AuditReport(
        plan=plan, footprints=footprints, violations=violations,
        cross_block_accesses=cross, total_reads=total_reads,
        total_writes=total_writes, executed_computations=executed_comps,
        executed_iterations=executed_iters,
        reference_counts=reference_counts, element_counts=element_counts,
    )


def block_cross_accesses(
    plan: PartitionPlan, block_index: int, max_detail: int = 1,
) -> tuple[int, list[AuditViolation]]:
    """Static cross-block access count for *one* block.

    The per-block slice of :func:`_static_replay`, cheap enough to run
    on demand: the fault-tolerant scheduler calls it before re-leasing
    a lost block to assert the block is disjoint (zero cross-block
    accesses), i.e. that re-execution is provably safe under the plan's
    theorem.  Returns the cross count and up to ``max_detail``
    attributed violations.
    """
    model = plan.model
    live = plan.live
    indices = model.nest.indices
    b = plan.blocks[block_index]
    alloc = {name: plan.data_blocks[name][b.index].elements
             for name in model.arrays}
    refs_by_stmt = _refs_by_stmt(model)

    cross = 0
    violations: list[AuditViolation] = []
    for it in b.iterations:
        for k in range(len(model.nest.statements)):
            if live is not None and (k, it) not in live:
                continue
            for info, ref in refs_by_stmt.get(k, ()):
                e = info.element_at(it, ref.c)
                if e not in alloc[info.name]:
                    cross += 1
                    if len(violations) < max_detail:
                        violations.append(
                            _attribute(plan, info, b, it, ref, e, indices))
    return cross, violations


def _run_engine_audit(plan: PartitionPlan, backend: Optional[str],
                      scalars: Optional[Mapping[str, float]],
                      report: AuditReport) -> EngineAuditRun:
    from repro.runtime.engine.base import resolve_engine
    from repro.runtime.parallel import run_parallel

    engine = resolve_engine(backend)
    requested = backend or "default"
    try:
        res = run_parallel(plan, scalars=scalars, backend=engine.name)
    except RemoteAccessError as exc:
        return EngineAuditRun(
            backend=requested, resolved=engine.name, completed=False,
            aborted=str(exc.args[0]) if exc.args else str(exc),
            remote_reads=0 if exc.is_write else 1,
            remote_writes=1 if exc.is_write else 0,
        )
    reads = sum(m.reads for m in res.memories.values())
    writes = sum(m.writes for m in res.memories.values())
    return EngineAuditRun(
        backend=requested, resolved=res.backend, completed=True,
        reads=reads, writes=writes,
        executed_iterations=res.executed_iterations,
        remote_reads=res.remote_reads, remote_writes=res.remote_writes,
        matches_static=(reads == report.total_reads
                        and writes == report.total_writes
                        and res.executed_iterations
                        == report.executed_iterations),
    )


def audit_plan(
    plan: PartitionPlan,
    scalars: Optional[Mapping[str, float]] = None,
    backends: Optional[Sequence[Optional[str]]] = None,
    run_engines: bool = True,
    max_detail: int = 8,
    registry: Optional[MetricsRegistry] = None,
) -> AuditReport:
    """Audit a plan for communication-freedom; see the module docstring.

    ``backends`` lists engines to reconcile (``None`` entries mean the
    default resolution); ``run_engines=False`` keeps the audit purely
    static.  At most ``max_detail`` violations carry full attribution;
    ``cross_block_accesses`` always counts all of them.
    """
    tracer = current_tracer()
    with tracer.span("audit.static", category="audit",
                     blocks=len(plan.blocks),
                     arrays=len(plan.model.arrays)) as sp:
        report = _static_replay(plan, max_detail=max_detail)
        sp.set(accesses=report.total_accesses,
               cross_block_accesses=report.cross_block_accesses)
    if run_engines:
        for backend in (backends if backends is not None else [None]):
            with tracer.span("audit.engine", category="audit",
                             backend=backend or "default") as sp:
                run = _run_engine_audit(plan, backend, scalars, report)
                sp.set(resolved=run.resolved, ok=run.ok,
                       completed=run.completed)
            report.engine_runs[run.resolved] = run
    report.publish(registry)
    return report


def inject_violation(plan: PartitionPlan) -> PartitionPlan:
    """A deliberately broken variant of ``plan`` for exercising the
    failure path.

    Repartitions the iteration space with ``Psi = {0}`` (every iteration
    its own block) while forcing *single-owner* data blocks: each
    referenced element is assigned to the block of the first live
    computation touching it, in sequential order.  Whenever the original
    plan needed ``dim(Psi) >= 1``, some reference pair couples two
    iterations that now sit in different blocks, so the replay (and any
    strict engine run) reports genuine cross-block accesses whose
    connecting ``delta`` escapes the broken ``Psi``.
    """
    model = plan.model
    from repro.ratlinalg.span import Subspace

    psi0 = Subspace.zero(model.nest.depth)
    blocks = iteration_partition(model.space, psi0)
    bmap = block_index_map(blocks)
    live = plan.live

    owner: dict[tuple[str, Coords], int] = {}
    for it in model.space.iterate():
        blk = bmap[tuple(it)]
        for name, info in model.arrays.items():
            for ref in info.references:
                if live is not None and (ref.stmt_index, tuple(it)) not in live:
                    continue
                owner.setdefault((name, info.element_at(it, ref.c)), blk)

    data_blocks: dict[str, list[DataBlock]] = {}
    for name in model.arrays:
        per: list[set[Coords]] = [set() for _ in blocks]
        for (nm, e), blk in owner.items():
            if nm == name:
                per[blk].add(e)
        data_blocks[name] = [
            DataBlock(array=name, block_index=j, elements=frozenset(s))
            for j, s in enumerate(per)
        ]

    return PartitionPlan(
        nest=plan.nest, model=model,
        breakdown=replace(plan.breakdown, psi=psi0),
        blocks=blocks, data_blocks=data_blocks, _block_of=bmap,
    )


# ---------------------------------------------------------------------------
# the ASCII dashboard
# ---------------------------------------------------------------------------

#: Heatmaps are skipped for arrays with more distinct elements than this.
_HEATMAP_LIMIT = 400


def _span_rollup(spans: Sequence[Span]) -> list[str]:
    agg: dict[str, tuple[int, int]] = {}
    for s in spans:
        n, total = agg.get(s.name, (0, 0))
        agg[s.name] = (n + 1, total + s.duration_ns)
    rows = sorted(agg.items(), key=lambda kv: (-kv[1][1], kv[0]))
    lines = [f"{'span':<32} {'count':>5} {'total ms':>10}"]
    for name, (n, total) in rows:
        lines.append(f"{name:<32} {n:>5} {total / 1e6:>10.3f}")
    return lines


def render_audit_dashboard(report: AuditReport,
                           spans: Optional[Sequence[Span]] = None,
                           max_rows: int = 12,
                           heatmaps: bool = True) -> str:
    """Render the audit as an ASCII dashboard.

    ``spans`` (default: the current tracer's) feed the span rollup;
    the section is omitted when there are none.
    """
    from repro.viz.ascii import render_heatmap

    plan = report.plan
    b = plan.breakdown
    arrays = sorted(plan.model.arrays)
    out: list[str] = []
    out.append(f"=== communication audit: {plan.nest.name or '<anon>'} ===")
    out.append(f"strategy: {plan.strategy.value}; redundancy-eliminated: "
               f"{'yes' if b.eliminate_redundant else 'no'}; "
               f"theorem: {report.theorem}")
    out.append(f"Psi: {plan.psi!r} (dim {plan.psi.dim})")
    out.append(f"blocks: {len(plan.blocks)}; executed iterations: "
               f"{report.executed_iterations}; computations: "
               f"{report.executed_computations}")
    out.append(f"accesses: {report.total_reads} reads + "
               f"{report.total_writes} writes = {report.total_accesses} "
               f"({len(arrays)} arrays)")

    out.append("")
    out.append("-- per-block accesses --")
    out.append(f"{'block':>5} {'iters':>6} {'reads':>6} {'writes':>6} "
               f"{'cross':>6}")
    for blk in plan.blocks[:max_rows]:
        fps = [report.footprints[(blk.index, a)] for a in arrays]
        out.append(f"{blk.index:>5} {len(blk.iterations):>6} "
                   f"{sum(f.reads for f in fps):>6} "
                   f"{sum(f.writes for f in fps):>6} "
                   f"{sum(f.cross for f in fps):>6}")
    if len(plan.blocks) > max_rows:
        out.append(f"  ... ({len(plan.blocks) - max_rows} more blocks)")
    out.append(f"{'total':>5} "
               f"{sum(len(x.iterations) for x in plan.blocks):>6} "
               f"{report.total_reads:>6} {report.total_writes:>6} "
               f"{report.cross_block_accesses:>6}")

    out.append("")
    out.append("-- references --")
    for d, n in sorted(report.reference_counts.items(),
                       key=lambda kv: (-kv[1], kv[0])):
        out.append(f"{d:<32} {n:>6}")

    if heatmaps:
        for name in arrays:
            counts = report.element_counts[name]
            rank = plan.model.arrays[name].rank
            if rank != 2 or not counts or len(counts) > _HEATMAP_LIMIT:
                continue
            out.append("")
            out.append(render_heatmap(
                counts,
                title=f"-- array {name} access heatmap "
                      f"(reads+writes per element) --"))

    if report.engine_runs:
        out.append("")
        out.append("-- engine reconciliation --")
        out.append(f"{'backend':<14} {'resolved':<14} {'reads':>6} "
                   f"{'writes':>6} {'remote':>6}  status")
        for name in sorted(report.engine_runs):
            r = report.engine_runs[name]
            if not r.completed:
                status = f"aborted ({r.aborted})"
            elif not r.matches_static:
                status = "MISMATCH vs static replay"
            elif r.remote_accesses:
                status = "remote accesses"
            else:
                status = "ok"
            out.append(f"{r.backend:<14} {r.resolved:<14} {r.reads:>6} "
                       f"{r.writes:>6} {r.remote_accesses:>6}  {status}")

    if report.violations:
        out.append("")
        shown = len(report.violations)
        out.append(f"-- violations (showing {shown} of "
                   f"{report.cross_block_accesses}) --")
        for v in report.violations:
            out.append(f"  {v.describe()}")

    if spans is None:
        spans = current_tracer().spans
    if spans:
        out.append("")
        out.append("-- span rollup --")
        out.extend(_span_rollup(spans))

    out.append("")
    out.append(f"verdict: {report.verdict()}")
    return "\n".join(out)
