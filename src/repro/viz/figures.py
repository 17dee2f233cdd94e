"""Regeneration of the paper's figures as structured data + text.

Each ``figNN_*`` function recomputes the figure's content from scratch
(analysis -> partition -> rendering) and returns a :class:`FigureArtifact`
with both the machine-checkable structure and a printable rendering.
Fig. 6 (the generic reference-graph schema) is a definition rather than
a result; Fig. 7 instantiates it for L3 and is reproduced.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.analysis import (
    analyze_redundancy,
    build_reference_graph,
    data_referenced_vectors,
    extract_references,
)
from repro.core import Strategy, build_plan
from repro.lang import catalog
from repro.mapping import assign_blocks, shape_grid, workload_stats
from repro.transform import to_pseudocode, transform_nest
from repro.viz.ascii import (
    render_data_partition,
    render_data_space,
    render_iteration_partition,
)


@dataclass
class FigureArtifact:
    """One regenerated figure."""

    figure: str
    title: str
    text: str
    data: dict[str, Any] = field(default_factory=dict)

    def __str__(self) -> str:
        return f"=== {self.figure}: {self.title} ===\n{self.text}"


def fig01_l1_dataspaces(n: int = 4) -> FigureArtifact:
    """Fig. 1: data spaces and data-referenced vectors of A, B, C in L1."""
    model = extract_references(catalog.l1(n))
    sections = []
    drvs = {}
    for name in ("A", "B", "C"):
        info = model.arrays[name]
        used = sorted({
            info.element_at(it, ref.c)
            for it in model.space.iterate() for ref in info.references
        })
        sections.append(render_data_space(used, title=f"array {name} (used elements)"))
        drvs[name] = [tuple(int(x) for x in d.vector)
                      for d in data_referenced_vectors(info)]
        sections.append(f"data-referenced vectors of {name}: {drvs[name]}")
    return FigureArtifact(
        figure="Fig. 1", title="data spaces and data-referenced vectors (L1)",
        text="\n".join(sections), data={"drvs": drvs},
    )


def _l1_plan(n: int = 4):
    return build_plan(catalog.l1(n), Strategy.NONDUPLICATE)


def fig02_l1_data_partition(n: int = 4) -> FigureArtifact:
    """Fig. 2: data blocks of A, B, C in L1 (7 blocks each)."""
    plan = _l1_plan(n)
    sections = []
    counts = {}
    for name in ("A", "B", "C"):
        sections.append(render_data_partition(
            plan.data_blocks[name], title=f"array {name}: element -> block"))
        counts[name] = [len(db) for db in plan.data_blocks[name]]
    return FigureArtifact(
        figure="Fig. 2", title="data partitions of L1",
        text="\n".join(sections),
        data={"num_blocks": plan.num_blocks, "block_sizes": counts},
    )


def fig03_l1_iteration_partition(n: int = 4) -> FigureArtifact:
    """Fig. 3: the 7 iteration blocks of L1 with base points."""
    plan = _l1_plan(n)
    text = render_iteration_partition(plan.blocks, title="iteration -> block")
    return FigureArtifact(
        figure="Fig. 3", title="iteration partition of L1",
        text=text,
        data={
            "base_points": [b.base_point for b in plan.blocks],
            "block_sizes": [len(b) for b in plan.blocks],
        },
    )


def fig04_l2_data_partition(n: int = 4) -> FigureArtifact:
    """Fig. 4: data partitions of A and B in L2 under duplicate data."""
    plan = build_plan(catalog.l2(n), Strategy.DUPLICATE)
    sections = []
    for name in ("A", "B"):
        sections.append(render_data_partition(
            plan.data_blocks[name], title=f"array {name} (* = replicated)"))
    repl = {name: plan.replication_factor(name) for name in ("A", "B")}
    return FigureArtifact(
        figure="Fig. 4", title="data partitions of L2 (duplicate strategy)",
        text="\n".join(sections),
        data={"num_blocks": plan.num_blocks, "replication": repl},
    )


def fig05_l2_iteration_partition(n: int = 4) -> FigureArtifact:
    """Fig. 5: every L2 iteration is its own block."""
    plan = build_plan(catalog.l2(n), Strategy.DUPLICATE)
    text = render_iteration_partition(plan.blocks, title="iteration -> block")
    return FigureArtifact(
        figure="Fig. 5", title="iteration partition of L2 (duplicate strategy)",
        text=text, data={"num_blocks": plan.num_blocks},
    )


def fig07_l3_reference_graph(n: int = 4) -> FigureArtifact:
    """Fig. 7: the data reference graph G^A of loop L3."""
    model = extract_references(catalog.l3(n))
    g = build_reference_graph(model, "A")
    edges = sorted(g.edge_names())
    lines = [f"vertices: W = {[g.vertex_name(w) for w in g.writes]}, "
             f"R = {[g.vertex_name(r) for r in g.reads]}"]
    lines += [f"  {s} -> {d}  [{k}]" for s, d, k in edges]
    return FigureArtifact(
        figure="Fig. 7", title="data reference graph of L3",
        text="\n".join(lines), data={"edges": edges},
    )


def fig08_l3_data_partition(n: int = 4) -> FigureArtifact:
    """Fig. 8: data blocks of A in L3 under the minimal duplicate space."""
    plan = build_plan(catalog.l3(n), Strategy.DUPLICATE, eliminate_redundant=True)
    text = render_data_partition(plan.data_blocks["A"],
                                 title="array A: element -> block (live accesses)")
    return FigureArtifact(
        figure="Fig. 8", title="data partition of L3 (minimal, duplicate)",
        text=text, data={"num_blocks": plan.num_blocks},
    )


def fig09_l3_iteration_partition(n: int = 4) -> FigureArtifact:
    """Fig. 9: L3 iteration blocks; S2-only iterations shown as ':'."""
    plan = build_plan(catalog.l3(n), Strategy.DUPLICATE, eliminate_redundant=True)
    red = plan.breakdown.redundancy
    assert red is not None
    mark = {}
    for it in plan.model.space.iterate():
        s1 = red.is_live(0, it)
        if not s1:
            mark[it] = ":"  # only S2 executes here (paper's dotted points)
    text = render_iteration_partition(plan.blocks, title="iteration -> block "
                                      "(':' = S2 only)", mark=mark)
    n_s1 = sorted(red.n_set(0))
    return FigureArtifact(
        figure="Fig. 9", title="iteration partition of L3 (minimal, duplicate)",
        text=text,
        data={"num_blocks": plan.num_blocks, "N_S1": n_s1},
    )


def fig10_l4_processor_assignment(n: int = 4, p: int = 4) -> FigureArtifact:
    """Fig. 10: cyclic assignment of L4' forall points on a 2x2 grid."""
    nest = catalog.l4(n)
    plan = build_plan(nest, Strategy.NONDUPLICATE)
    tnest = transform_nest(nest, plan.psi)
    grid = shape_grid(p, tnest.k)
    assignment = assign_blocks(tnest, grid)
    stats = workload_stats(assignment)
    lines = [to_pseudocode(tnest), "", "forall-point weights (iterations/block):"]
    for pt in sorted(assignment.weights):
        lines.append(f"  {pt}: {assignment.weights[pt]} -> PE{assignment.owner(pt)}")
    lines.append(stats.summary())
    return FigureArtifact(
        figure="Fig. 10", title="processor assignment of L4'",
        text="\n".join(lines),
        data={"grid": grid.dims, "loads": stats.loads,
              "imbalance": stats.imbalance},
    )
