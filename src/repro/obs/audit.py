"""The communication audit: certify zero cross-block accesses.

The paper's guarantee (Theorems 1-4) is that a partition built on
``Psi = span(X_1 ∪ ... ∪ X_k)`` needs *no* interprocessor communication:
no two iterations of different blocks touch one element (for replicated
arrays: none writes what the other then reads).  Three checks:

**The algebraic certificate** (:mod:`repro.obs.certificate`) decides
that from ``(H, c, bounds, Q)`` in O(reference pairs), sharing no code
with the planner, and is the report's ``communication_free`` verdict:
*proved free*, or *refuted* with a witness attributed per Definition 1
-- both references, ``r = c - c'``, the iteration offset ``delta``,
"delta in Psi: no".  Access totals are closed-form (space size or live
mask, times references per statement).

**The static replay** walks every access of every block against the
block's data blocks.  Those were built from the same accesses, so on a
rule-built plan it is clean by construction; it stays as the *fallback*
where the certificate is undecided (``eliminate_redundant`` plans: the
live mask is defined by enumeration), the *detail view* (footprints,
element counts, every violation of a refuted plan), computed when
something reads it, and the *oracle* the certificate is tested against.

**Engine reconciliation** is the dynamic check of the materialised
allocation: each requested engine runs the plan and must complete
without a :class:`~repro.machine.memory.RemoteAccessError`, touch zero
remote elements and count exactly the static totals, on both lease
paths of the multiprocess engine.  *Certified* = communication-free and
every engine run reconciled.

:func:`inject_violation` builds a deliberately broken variant of a plan
so the failure path stays exercised.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import asdict, dataclass, field, replace
from typing import Any, Mapping, Optional, Sequence

from repro.core.partition import DataBlock, iteration_partition
from repro.core.plan import PartitionPlan
from repro.core.strategy import Strategy
from repro.machine.memory import RemoteAccessError
from repro.obs.certificate import Certificate, Coords, Witness, certify_plan
from repro.obs.metrics import MetricsRegistry, current_registry
from repro.obs.trace import Span, current_tracer
from repro.ratlinalg.span import Subspace

#: (strategy, eliminate_redundant) -> the theorem certifying the plan.
THEOREMS: dict[tuple[Strategy, bool], int] = {
    (Strategy.NONDUPLICATE, False): 1,
    (Strategy.DUPLICATE, False): 2,
    (Strategy.NONDUPLICATE, True): 3,
    (Strategy.DUPLICATE, True): 4,
}


def _jsonable(record) -> dict:
    """A flat dataclass as a JSON-ready dict (coordinate tuples as lists)."""
    return {k: list(v) if isinstance(v, tuple) else v
            for k, v in asdict(record).items()}


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
    owner_block: Optional[int] = None
    owner_iteration: Optional[Coords] = None
    owner_reference: Optional[str] = None
    r: Optional[Coords] = None
    delta: Optional[Coords] = None
    delta_in_psi: Optional[bool] = None

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
class Replay:
    """What :func:`_static_replay` found, access by access."""

    footprints: dict[tuple[int, str], AccessFootprint]
    element_counts: dict[str, dict[Coords, int]]
    violations: list[AuditViolation]
    cross: int                       # total (violations above are capped)


@dataclass
class AuditReport:
    """The full audit: certificate, totals, violations, engine
    reconciliation -- and the replay's detail, once something reads it."""

    plan: PartitionPlan
    certificate: Certificate
    total_reads: int
    total_writes: int
    executed_computations: int
    executed_iterations: int
    reference_counts: dict[str, int]
    violations: list[AuditViolation] = field(default_factory=list)
    cross_block_accesses: int = 0    # the replay's count; 0 if proved free
    engine_runs: dict[str, EngineAuditRun] = field(default_factory=dict)
    replay: Optional[Replay] = None

    @property
    def detail(self) -> Replay:
        if self.replay is None:
            self.replay = _static_replay(self.plan, max_detail=0)
        return self.replay

    @property
    def footprints(self) -> dict[tuple[int, str], AccessFootprint]:
        return self.detail.footprints

    @property
    def element_counts(self) -> dict[str, dict[Coords, int]]:
        return self.detail.element_counts

    @property
    def theorem(self) -> int:
        return THEOREMS[(self.plan.strategy,
                         self.plan.breakdown.eliminate_redundant)]

    @property
    def total_accesses(self) -> int:
        return self.total_reads + self.total_writes

    @property
    def communication_free(self) -> bool:
        """Static verdict: the certificate's; the replay's only where the
        certificate is undecided."""
        cert = self.certificate
        return cert.free or (not cert.decided
                             and self.cross_block_accesses == 0)

    @property
    def certified(self) -> bool:
        """Static verdict *and* every engine run reconciled."""
        return self.communication_free and all(
            r.ok for r in self.engine_runs.values())

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
            return (f"NOT CERTIFIED: the static check is clean but "
                    f"{len(bad)}/{len(runs)} engine runs failed to reconcile "
                    f"({', '.join(r.resolved for r in bad)})")
        v = self.violations[0] if self.violations else None
        head = (f"VIOLATED: {self.cross_block_accesses} cross-block "
                f"accesses in {self.total_accesses} accesses")
        if not self.cross_block_accesses:
            head += (" against the plan's own data blocks, but Psi splits "
                     "iterations that share an element")
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
            "certificate": self.certificate.to_dict(),
            "violations": [_jsonable(v) for v in self.violations],
            "engine_runs": {name: {**_jsonable(r), "ok": r.ok}
                            for name, r in self.engine_runs.items()},
            "verdict": self.verdict(),
        }

    # the Summary protocol
    ok = certified
    summary = verdict
    to_json = to_dict

    def publish(self, registry: Optional[MetricsRegistry] = None) -> None:
        """Publish the audit outcome as ``audit.*`` metrics."""
        reg = registry if registry is not None else current_registry()
        reg.inc("audit.runs")
        reg.inc("audit.engine_runs", len(self.engine_runs))
        reg.set("audit.accesses", self.total_accesses)
        reg.set("audit.cross_block_accesses", self.cross_block_accesses)
        reg.set("audit.certified", 1 if self.certified else 0)
        reg.set("audit.theorem", self.theorem)


def _violation(plan: PartitionPlan, info, ref, it: Coords,
               owner, owner_it: Coords) -> AuditViolation:
    """``ref`` at ``it`` touched what ``owner`` touches at ``owner_it``,
    in another block."""
    indices = plan.model.nest.indices
    delta = tuple(a - b for a, b in zip(it, owner_it))
    return AuditViolation(
        block=plan.block_of(it), array=info.name, iteration=tuple(it),
        element=info.element_at(it, ref.c), reference=ref.describe(indices),
        is_write=ref.is_write, owner_block=plan.block_of(owner_it),
        owner_iteration=tuple(owner_it),
        owner_reference=owner.describe(indices),
        r=tuple(a - b for a, b in zip(ref.c, owner.c)), delta=delta,
        delta_in_psi=delta in plan.psi)


def _by_role(info, prefer_write: bool) -> list:
    """References ordered so the preferred role comes first."""
    return sorted(info.references, key=lambda r: (
        r.is_write != prefer_write, r.stmt_index, r.slot))


def _attribute(plan: PartitionPlan, info, block, it: Coords, ref,
               element: Coords) -> AuditViolation:
    """Name the owner of a remotely-touched element and the escaping vectors."""
    owners = plan.owners_of_element(info.name, element)
    live = plan.live
    # prefer the owner's *write* reference: that pairing is the flow
    # dependence the paper's data-referenced vectors model
    refs = _by_role(info, prefer_write=True)
    for ob in owners:
        if ob == block.index:
            continue
        for it2 in plan.blocks[ob].iterations:
            for ref2 in refs:
                if ((live is None or (ref2.stmt_index, it2) in live)
                        and info.element_at(it2, ref2.c) == element):
                    return _violation(plan, info, ref, it, ref2, it2)
    return AuditViolation(
        block=block.index, array=info.name, iteration=tuple(it),
        element=element, reference=ref.describe(plan.model.nest.indices),
        is_write=ref.is_write, owner_block=owners[0] if owners else None)


def _witness_violation(plan: PartitionPlan, w: Witness) -> AuditViolation:
    """The checker's witness as a violation: the access at the far end
    of the pair, owned by the near end (the writer, when only one writes)."""
    info = plan.model.arrays[w.array]
    writes = {r.c for r in info.references if r.is_write}
    ends = [(w.c1, w.i), (w.c2, tuple(a + b for a, b in zip(w.i, w.t)))]
    if w.c2 in writes and w.c1 not in writes:
        ends.reverse()
    (owner_c, owner_it), (c, it) = ends
    owner = next(r for r in _by_role(info, True) if r.c == owner_c)
    ref = next(r for r in _by_role(info, False) if r.c == c)
    return _violation(plan, info, ref, it, owner, owner_it)


def _totals(plan: PartitionPlan) -> dict[str, Any]:
    """Access totals in closed form: a statement runs once per iteration
    of the space, or once per live computation."""
    model, live = plan.model, plan.live
    size = model.space.size()
    runs = None if live is None else Counter(k for k, _ in live)
    by_role = [0, 0]
    counts: Counter = Counter()
    for ref in model.all_references():
        n = size if runs is None else runs[ref.stmt_index]
        by_role[ref.is_write] += n
        counts[ref.describe(model.nest.indices)] += n
    return dict(
        total_reads=by_role[0], total_writes=by_role[1],
        executed_computations=(size * len(model.nest.statements)
                               if live is None else len(live)),
        executed_iterations=(size if live is None
                             else len({it for _, it in live})),
        reference_counts={d: n for d, n in counts.items() if n})


def _static_replay(plan: PartitionPlan, max_detail: int,
                   blocks: Optional[Sequence] = None) -> Replay:
    """Walk every access of ``blocks`` (default: all of the plan's) and
    classify it against the block's allocated data blocks; at most
    ``max_detail`` cross-block accesses are attributed."""
    model = plan.model
    live = plan.live
    refs_by_stmt: dict[int, list] = {}
    for info in model.arrays.values():
        for ref in info.references:
            refs_by_stmt.setdefault(ref.stmt_index, []).append((info, ref))
    stmts = sorted(refs_by_stmt.items())

    footprints: dict[tuple[int, str], AccessFootprint] = {}
    element_counts: dict[str, dict[Coords, int]] = {
        name: {} for name in model.arrays}
    violations: list[AuditViolation] = []
    cross = 0

    for b in (plan.blocks if blocks is None else blocks):
        alloc = {name: plan.data_blocks[name][b.index].elements
                 for name in model.arrays}
        for name in model.arrays:
            footprints[(b.index, name)] = AccessFootprint(block=b.index,
                                                          array=name)
        for it in b.iterations:
            for k, pairs in stmts:
                if live is not None and (k, it) not in live:
                    continue
                for info, ref in pairs:
                    e = info.element_at(it, ref.c)
                    fp = footprints[(b.index, info.name)]
                    if ref.is_write:
                        fp.writes += 1
                        fp.write_elements.add(e)
                    else:
                        fp.reads += 1
                        fp.read_elements.add(e)
                    counts = element_counts[info.name]
                    counts[e] = counts.get(e, 0) + 1
                    if e not in alloc[info.name]:
                        cross += 1
                        fp.cross += 1
                        if len(violations) < max_detail:
                            violations.append(
                                _attribute(plan, info, b, it, ref, e))
    return Replay(footprints=footprints, element_counts=element_counts,
                  violations=violations, cross=cross)


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
        cert = certify_plan(plan, registry)
        report = AuditReport(plan=plan, certificate=cert, **_totals(plan))
        if not cert.free:
            replay = report.replay = _static_replay(plan, max_detail)
            report.cross_block_accesses = replay.cross
            report.violations = replay.violations
            if cert.witness and max_detail and not replay.violations:
                report.violations = [_witness_violation(plan, cert.witness)]
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
    """A deliberately broken variant of ``plan`` for the failure path.

    Repartitions the iteration space with ``Psi = {0}`` (every iteration
    its own block) and forces *single-owner* data blocks -- each element
    goes to the block of the first live computation touching it, in
    sequential order -- which the breakdown then says: nothing is
    replicated.  Whenever the original plan needed ``dim(Psi) >= 1``,
    some reference pair couples two iterations now in different blocks,
    so certificate, replay and every strict engine run report genuine
    cross-block accesses whose ``delta`` escapes the broken ``Psi``.
    """
    model = plan.model
    psi0 = Subspace.zero(model.nest.depth)
    blocks = iteration_partition(model.space, psi0)
    bmap = {b.base_point: b.index for b in blocks}   # one iteration each
    live = plan.live

    data_blocks: dict[str, list[DataBlock]] = {}
    for name, info in model.arrays.items():
        owner: dict[Coords, int] = {}
        for it in model.space.iterate():
            for ref in info.references:
                if live is None or (ref.stmt_index, it) in live:
                    owner.setdefault(info.element_at(it, ref.c), bmap[it])
        per: list[set[Coords]] = [set() for _ in blocks]
        for e, blk in owner.items():
            per[blk].add(e)
        data_blocks[name] = [
            DataBlock(array=name, block_index=j, elements=frozenset(s))
            for j, s in enumerate(per)]

    return PartitionPlan(
        nest=plan.nest, model=model,
        breakdown=replace(plan.breakdown, psi=psi0,
                          duplicated_arrays=frozenset()),
        blocks=blocks, data_blocks=data_blocks,
    )


# -- the ASCII dashboard ------------------------------------------------------

#: Heatmaps are skipped for arrays with more distinct elements than this.
_HEATMAP_LIMIT = 400
#: Per-block rows shown before the table is cut.
_MAX_ROWS = 12


def _span_rollup(spans: Sequence[Span]) -> list[str]:
    # audit.static is one row; its split (certificate, replay) is the
    # trace's business
    static = {s.span_id for s in spans if s.name == "audit.static"}
    agg: dict[str, tuple[int, int]] = {}
    for s in spans:
        if s.parent_id in static:
            continue
        n, total = agg.get(s.name, (0, 0))
        agg[s.name] = (n + 1, total + s.duration_ns)
    rows = sorted(agg.items(), key=lambda kv: (-kv[1][1], kv[0]))
    lines = [f"{'span':<32} {'count':>5} {'total ms':>10}"]
    for name, (n, total) in rows:
        lines.append(f"{name:<32} {n:>5} {total / 1e6:>10.3f}")
    return lines


def render_audit_dashboard(report: AuditReport,
                           spans: Sequence[Span]) -> str:
    """Render the audit as an ASCII dashboard; ``spans`` feed the span
    rollup (omitted when there are none)."""
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
    out.append(f"certificate: {report.certificate.line()}")

    out.append("")
    out.append("-- per-block accesses --")
    out.append(f"{'block':>5} {'iters':>6} {'reads':>6} {'writes':>6} "
               f"{'cross':>6}")
    for blk in plan.blocks[:_MAX_ROWS]:
        fps = [report.footprints[(blk.index, a)] for a in arrays]
        out.append(f"{blk.index:>5} {len(blk.iterations):>6} "
                   f"{sum(f.reads for f in fps):>6} "
                   f"{sum(f.writes for f in fps):>6} "
                   f"{sum(f.cross for f in fps):>6}")
    if len(plan.blocks) > _MAX_ROWS:
        out.append(f"  ... ({len(plan.blocks) - _MAX_ROWS} more blocks)")
    out.append(f"{'total':>5} "
               f"{sum(len(x.iterations) for x in plan.blocks):>6} "
               f"{report.total_reads:>6} {report.total_writes:>6} "
               f"{report.cross_block_accesses:>6}")

    out.append("")
    out.append("-- references --")
    for d, n in sorted(report.reference_counts.items(),
                       key=lambda kv: (-kv[1], kv[0])):
        out.append(f"{d:<32} {n:>6}")

    for name in arrays:
        counts = report.element_counts[name]
        rank = plan.model.arrays[name].rank
        if rank != 2 or not counts or len(counts) > _HEATMAP_LIMIT:
            continue
        out.append("")
        out.append(render_heatmap(
            counts, title=f"-- array {name} access heatmap "
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
        out.append(f"-- violations (showing {len(report.violations)} of "
                   f"{report.cross_block_accesses}) --"
                   if report.cross_block_accesses else
                   "-- violations (the certificate's witness) --")
        for v in report.violations:
            out.append(f"  {v.describe()}")

    if spans:
        out.append("")
        out.append("-- span rollup --")
        out.extend(_span_rollup(spans))

    out.append("")
    out.append(f"verdict: {report.verdict()}")
    return "\n".join(out)
