"""The communication audit: one verdict on zero cross-block accesses.

The paper's guarantee has two parts.  Theorems 1-4: a partition built
on ``Psi = span(X_1 ∪ ... ∪ X_k)`` needs *no* interprocessor
communication -- no two iterations of different blocks touch one
element (for replicated arrays: none writes what the other then reads).
Definition 3: block ``B_j`` holds the data block
``B_j^A = {H i + c : i in B_j}``.  :func:`static_verdict` (defined in
:mod:`repro.obs.certificate`) is the one place that decides whether a
plan is communication-free, once per plan, for this audit and codegen:

**The algebraic certificate** (:mod:`repro.obs.certificate`) decides
the partition from ``(H, c, bounds, Q)`` in O(reference pairs), sharing
no code with the planner: *proved free*, or *refuted* with a witness
attributed per Definition 1 -- both references, ``r = c - c'``, the
iteration offset ``delta``, "delta in Psi: no".

**The allocation check** (:func:`allocation_misses`) holds the
materialised data blocks to Definition 3 by one walk of column
arithmetic: every element a block touches (under a
live mask: by its live computations) is its own, and any it does not
hold is counted and located.
Where the certificate is undecided (``eliminate_redundant`` plans: the
live mask is defined by enumeration; the search budget), it alone is
the verdict.

Access totals, the dashboard's per-block rows and its heatmaps are
closed-form; per-block cross counts and the first :data:`MAX_DETAIL`
violations come from the allocation check's one walk, attributed here.

**Engine reconciliation** is the dynamic check: each requested engine
runs the plan and must complete without a
:class:`~repro.machine.memory.RemoteAccessError`, touch zero remote
elements and count exactly the static totals (``multiprocess``
included: its workers run codegen's kernel on the run's shared store).
*Certified* = communication-free and every engine run reconciled.

:func:`inject_violation` builds a deliberately broken variant of a plan
so the failure path stays exercised.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import asdict, dataclass, field, replace
from typing import Any, Mapping, Optional, Sequence

from repro._lazy import Sidecar
from repro.core.partition import DataBlock, affine_images, iteration_partition
from repro.core.plan import PartitionPlan
from repro.core.strategy import Strategy
from repro.machine.memory import RemoteAccessError
from repro.obs.certificate import (  # MAX_DETAIL: re-exported
    MAX_DETAIL, Certificate, Coords, Witness, _statement_runs,
    allocation_misses, static_verdict)
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
    """One engine's run of the plan, reconciled against the static totals."""

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
    """The full audit: the static verdict, totals, violations and
    engine reconciliation."""

    plan: PartitionPlan
    certificate: Certificate
    #: the static verdict (:func:`static_verdict`)
    communication_free: bool
    total_reads: int
    total_writes: int
    executed_computations: int
    executed_iterations: int
    reference_counts: dict[str, int]
    violations: list[AuditViolation] = field(default_factory=list)
    #: block index -> cross-block accesses (the allocation walk's)
    block_cross: dict[int, int] = field(default_factory=dict)
    engine_runs: dict[str, EngineAuditRun] = field(default_factory=dict)

    @property
    def cross_block_accesses(self) -> int:
        return sum(self.block_cross.values())

    @property
    def theorem(self) -> int:
        return THEOREMS[(self.plan.strategy,
                         self.plan.breakdown.eliminate_redundant)]

    @property
    def total_accesses(self) -> int:
        return self.total_reads + self.total_writes

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


# -- attribution ---------------------------------------------------------------

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


def _attribute(plan: PartitionPlan, block: int, it: Coords, ref,
               element: Coords) -> AuditViolation:
    """Name the owner of an element ``block`` touched remotely and the
    escaping vectors."""
    info = plan.model.arrays[ref.array]
    owners = plan.owners_of_element(info.name, element)
    live = plan.live
    # prefer the owner's *write* reference: that pairing is the flow
    # dependence the paper's data-referenced vectors model
    refs = _by_role(info, prefer_write=True)
    for ob in owners:
        if ob == block:
            continue
        for it2 in plan.blocks[ob].iterations:
            for ref2 in refs:
                if ((live is None or (ref2.stmt_index, it2) in live)
                        and info.element_at(it2, ref2.c) == element):
                    return _violation(plan, info, ref, it, ref2, it2)
    return AuditViolation(
        block=block, array=info.name, iteration=tuple(it),
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


#: a plan's totals, rendered once per plan however often it is audited
_TOTALS = Sidecar(_totals)


def _run_engine_audit(plan: PartitionPlan, backend: Optional[str],
                      scalars: Optional[Mapping[str, float]],
                      report: AuditReport) -> EngineAuditRun:
    from repro.runtime.parallel import run_parallel

    requested = backend or "default"
    try:
        res = run_parallel(plan, scalars=scalars, backend=backend)
    except RemoteAccessError as exc:
        return EngineAuditRun(
            backend=requested, resolved=exc.backend, completed=False,
            aborted=str(exc.args[0]) if exc.args else str(exc),
            remote_reads=0 if exc.is_write else 1,
            remote_writes=1 if exc.is_write else 0,
        )
    reads, writes = res.reads, res.writes
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
    registry: Optional[MetricsRegistry] = None,
) -> AuditReport:
    """Audit a plan for communication-freedom; see the module docstring.

    ``backends`` lists engines to reconcile (``None`` entries mean the
    default resolution; ``None`` itself, the default engine only);
    ``[]`` is the static audit.
    """
    tracer = current_tracer()
    with tracer.span("audit.static", category="audit",
                     blocks=len(plan.blocks),
                     arrays=len(plan.model.arrays)) as sp:
        cert, free = static_verdict(plan, registry)
        report = AuditReport(plan=plan, certificate=cert,
                             communication_free=free, **_TOTALS.get(plan))
        cross, located = allocation_misses(plan, registry)
        report.block_cross = dict(cross)
        report.violations = [_attribute(plan, *miss) for miss in located]
        if cert.witness and not report.violations:
            report.violations = [_witness_violation(plan, cert.witness)]
        sp.set(accesses=report.total_accesses,
               cross_block_accesses=report.cross_block_accesses)
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
    so certificate, allocation check and every strict engine run report
    genuine cross-block accesses whose ``delta`` escapes the broken
    ``Psi``.
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
                          duplicated_arrays=frozenset(), contributions=()),
        blocks=blocks, data_blocks=data_blocks,
    )


# -- the ASCII dashboard ------------------------------------------------------

#: Heatmaps are skipped for arrays with more distinct elements than this.
_HEATMAP_LIMIT = 400
#: Per-block rows shown before the table is cut.
_MAX_ROWS = 12


def _element_counts(info, runs: dict) -> Counter:
    """Accesses per element of one array in closed form: each reference's
    ``H i + c`` over the points its statement ``runs`` at."""
    counts: Counter = Counter()
    for ref in info.references:
        counts.update(next(affine_images(info.h_rows, runs[ref.stmt_index],
                                         [ref.c])))
    return counts


def _span_rollup(spans: Sequence[Span]) -> list[str]:
    # audit.static is one row; its split (certificate, allocation walk)
    # is the trace's business
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
    # per statement: the reads and the writes of one run
    roles = [[0, 0] for _ in plan.nest.statements]
    for ref in plan.model.all_references():
        roles[ref.stmt_index][ref.is_write] += 1
    for blk in plan.blocks[:_MAX_ROWS]:
        runs = _statement_runs(plan, blk.iterations)
        reads, writes = (sum(len(runs[k]) * role[w]
                             for k, role in enumerate(roles))
                         for w in (0, 1))
        out.append(f"{blk.index:>5} {len(blk.iterations):>6} "
                   f"{reads:>6} {writes:>6} "
                   f"{report.block_cross.get(blk.index, 0):>6}")
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

    runs = _statement_runs(plan, list(plan.model.space.iterate()))
    for name in arrays:
        info = plan.model.arrays[name]
        counts = _element_counts(info, runs) if info.rank == 2 else {}
        if not counts or len(counts) > _HEATMAP_LIMIT:
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
                status = "MISMATCH vs static totals"
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
