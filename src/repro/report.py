"""Whole-pipeline compiler report for one loop nest.

``compile_report(nest, p)`` runs everything the paper describes --
analysis, strategy comparison (with cost estimates), the chosen
partition, the transformed parallel form, the SPMD mapping -- and
renders a single human-readable report.  Used by ``python -m repro
report`` and handy as the one-call "what does the technique say about
my loop" entry point.

All stages run through the shared pass pipeline
(:func:`repro.pipeline.run_pipeline`): the analysis artifacts come from
the ``extract-refs``/``eliminate-redundancy`` passes, the selected
plan's transformation and mapping from the ``transform``/``map``
passes, and any structured diagnostics the passes emit are rendered in
their own report section.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

from repro.analysis import (
    build_reference_graph,
    data_referenced_vectors,
    is_fully_duplicable,
)
from repro.core.plan import PartitionPlan
from repro.lang.ast import LoopNest
from repro.lang.printer import to_source
from repro.machine.cost import CostModel, TRANSPUTER
from repro.perf.selector import SelectionResult, choose_strategy
from repro.pipeline import PipelineConfig, run_pipeline
from repro.runtime.verify import VerificationReport, verify_plan
from repro.transform import to_pseudocode, to_spmd_pseudocode
from repro.viz.dot import to_dot


@dataclass
class CompileReport:
    """Everything the pipeline derived about one nest."""

    nest: LoopNest
    selection: SelectionResult
    plan: PartitionPlan                       # the selected plan
    pseudocode: str
    spmd_pseudocode: str
    balance_summary: str
    verification: Optional[VerificationReport]
    sections: list[tuple[str, str]] = field(default_factory=list)

    def render(self) -> str:
        out = []
        for title, body in self.sections:
            out.append(f"=== {title} ===")
            out.append(body)
            out.append("")
        return "\n".join(out)


def compile_report(
    nest: LoopNest,
    p: int = 16,
    cost: CostModel = TRANSPUTER,
    consider_elimination: bool = True,
    verify: bool = True,
    scalars=None,
    config: Optional[PipelineConfig] = None,
) -> CompileReport:
    """Run the full pipeline and assemble the report.

    ``config`` carries the CLI's shared flag plumbing (scalars,
    processors); strategy fields are chosen by the selector, so only
    its elimination/scalars settings matter here.
    """
    if config is not None:
        scalars = scalars if scalars is not None else (
            config.scalars_dict() or None)

    # -- analysis passes ----------------------------------------------------
    actx = run_pipeline(
        nest,
        PipelineConfig(eliminate_redundant=consider_elimination),
        upto="eliminate-redundancy",
    )
    model = actx.model
    sections: list[tuple[str, str]] = []

    sections.append(("input loop", to_source(nest)))

    lines = []
    for name, info in model.arrays.items():
        drvs = [tuple(int(x) for x in d.vector)
                for d in data_referenced_vectors(info)]
        kind = ("fully duplicable"
                if is_fully_duplicable(info, model.space)
                else "partially duplicable")
        lines.append(f"array {name}: H = {info.h!r}; DRVs {drvs}; {kind}")
        g = build_reference_graph(model, name)
        for s, d, k in g.edge_names():
            lines.append(f"  {s} -> {d} [{k}]")
    sections.append(("reference analysis", "\n".join(lines)))

    red = actx.redundancy
    if consider_elimination:
        sections.append(("redundancy analysis", red.summary()))

    from repro.analysis.summary import (format_dependence_table,
                                        summarize_dependences)

    sections.append(("dependence table",
                     format_dependence_table(
                         summarize_dependences(model, red))))

    # -- strategy comparison ------------------------------------------------
    selection = choose_strategy(nest, p, cost=cost,
                                consider_elimination=consider_elimination)
    sections.append((f"strategy comparison (p={p})", selection.table()))
    best = selection.best
    plan = best.plan
    sections.append(("selected plan", plan.summary()))

    from repro.core.provenance import (explain_partitioning_space,
                                       render_contributions)

    contribs = explain_partitioning_space(
        model,
        strategy=plan.strategy,
        duplicate_arrays=plan.breakdown.duplicated_arrays or None,
        eliminate_redundant=plan.breakdown.eliminate_redundant,
        redundancy=plan.breakdown.redundancy,
    )
    sections.append(("why Psi looks like this",
                     render_contributions(contribs, plan.psi)))

    # -- transformation + mapping via the pipeline --------------------------
    best_config = replace(
        PipelineConfig(
            strategy=plan.strategy,
            duplicate_arrays=(frozenset(best.duplicate_arrays)
                              if best.duplicate_arrays else None),
            eliminate_redundant=best.eliminate_redundant,
        ),
        processors=p,
    )
    bctx = run_pipeline(nest, best_config, upto="map", model=model)
    tnest = bctx.tnest
    pseudo = to_pseudocode(tnest)
    sections.append(("parallel form", pseudo))
    grid = bctx.grid
    spmd = to_spmd_pseudocode(tnest, grid)
    sections.append((f"SPMD form (grid {grid.dims})", spmd))
    from repro.mapping import workload_stats

    balance = workload_stats(bctx.assignment).summary()
    sections.append(("load balance", balance))

    # -- reference graphs as DOT --------------------------------------------
    dot = "\n\n".join(
        to_dot(build_reference_graph(model, name), title=f"G_{name}")
        for name in model.arrays
    )
    sections.append(("reference graphs (DOT)", dot))

    # -- simulated machine --------------------------------------------------
    # functional re-execution on the cost-charged multicomputer; feeds
    # the machine.* metrics and category-"machine" trace spans
    from repro.runtime.machine_run import run_on_machine

    backend = config.backend if config is not None else None
    mrun = run_on_machine(
        plan, p, cost=cost, scalars=scalars, verify=False,
        backend=None if backend == "all" else backend,
    )
    st = mrun.stats
    sections.append((
        f"simulated machine (p={mrun.machine.num_processors})",
        f"distribution time: {st.distribution_time:.6f}\n"
        f"max compute time: {st.max_compute_time:.6f}\n"
        f"makespan: {st.makespan:.6f}\n"
        f"messages: {st.messages} ({st.words_sent} words)\n"
        f"remote accesses: {st.remote_accesses}\n"
        f"communication-free: {mrun.communication_free}\n"
        f"{mrun.summary()}",
    ))

    # -- communication audit ------------------------------------------------
    # static replay only: the engine runs are covered by verification
    # below, and keeping this section purely analytic keeps it stable
    from repro.obs.audit import audit_plan

    audit = audit_plan(plan, scalars=scalars, run_engines=False)
    sections.append((
        "communication audit",
        f"theorem: {audit.theorem_label()}\n"
        f"accesses: {audit.total_reads} reads + {audit.total_writes} "
        f"writes across {len(plan.blocks)} blocks\n"
        f"cross-block accesses: {audit.cross_block_accesses}\n"
        f"{audit.verdict()}",
    ))

    # -- verification -------------------------------------------------------
    verification: Optional[VerificationReport] = None
    if verify:
        verification = verify_plan(plan, scalars=scalars, backend=backend)
        body = (
            f"blocks: {verification.num_blocks}\n"
            f"remote accesses: {verification.remote_accesses}\n"
            f"parallel == sequential: {verification.equal}\n"
        )
        if verification.cross_checked:
            body += ("backends cross-checked: "
                     + ", ".join(sorted(verification.cross_checked)) + "\n")
        elif backend:
            body += f"backend: {verification.backend}\n"
        body += verification.summary() + "\n"
        body += "OK" if verification.ok else "FAILED"
        sections.append(("verification", body))

    # -- structured diagnostics ---------------------------------------------
    diags = list(actx.diagnostics) + [
        d for d in bctx.diagnostics if d not in actx.diagnostics.records
    ]
    if diags:
        sections.append(("diagnostics",
                         "\n".join(d.render() for d in diags)))

    # -- observability -------------------------------------------------------
    # deterministic view of the unified registry: scalar metrics by
    # value, histograms by sample count only (times vary run to run)
    from repro.obs.metrics import Histogram, current_registry

    reg = current_registry()
    obs_lines = []
    for name in reg.names():
        m = reg.get(name)
        if isinstance(m, Histogram):
            obs_lines.append(f"histogram {name}: {m.count} samples")
        else:
            v = m.value
            shown = int(v) if float(v).is_integer() else v
            obs_lines.append(f"{m.kind} {name}: {shown}")
    if obs_lines:
        sections.append(("observability", "\n".join(obs_lines)))

    return CompileReport(
        nest=nest, selection=selection, plan=plan,
        pseudocode=pseudo, spmd_pseudocode=spmd,
        balance_summary=balance, verification=verification,
        sections=sections,
    )
