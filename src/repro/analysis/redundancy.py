"""Redundant-computation elimination (Section III.C).

A computation ``S_k(i)`` is *redundant* when the value it writes is
overwritten before being read by any non-redundant computation (the
paper's Cases 1 and 2, applied recursively).  Equivalently, the
*non-redundant* (live) computations are the least fixpoint of

    live(C)  iff  C's written value is never overwritten (final value)
             or   some live computation reads C's value before the
                  overwrite,

computed here by a backwards worklist over the exact sequential trace.
The analysis then yields:

- ``N(S_k)`` -- the iterations where ``S_k`` is non-redundant;
- ``Val(ref, S)`` -- elements actually touched by non-redundant
  computations through ``ref``;
- the *false* vs. *useful* classification of every data-reference-graph
  edge (``Val(a,S) ∩ Val(b,S') = φ`` means false);
- the dependence vectors contributed by useful edges, feeding the
  minimal partitioning spaces of Theorems 3 and 4.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.analysis.dependence import Dependence, DependenceKind
from repro.analysis.references import Reference, ReferenceModel
from repro.analysis.refgraph import DataReferenceGraph, build_all_reference_graphs
from repro.analysis.trace import CompId, Element, SequentialTrace, build_trace
from repro.ratlinalg.lattice import IntLattice
from repro.ratlinalg.matrix import RatVec
from repro.ratlinalg.smith import solve_diophantine


@dataclass
class RedundancyAnalysis:
    """Results of redundant-computation elimination for one loop nest."""

    model: ReferenceModel
    trace: SequentialTrace
    live: set[CompId]
    graphs: dict[str, DataReferenceGraph]
    useful_edges: list[Dependence] = field(default_factory=list)
    false_edges: list[Dependence] = field(default_factory=list)

    # -- N(S_k) ----------------------------------------------------------
    def n_set(self, stmt_index: int) -> set[tuple[int, ...]]:
        """``N(S_k)``: iterations where statement ``k`` is non-redundant."""
        return {it for (k, it) in self.live if k == stmt_index}

    def redundant_set(self, stmt_index: int) -> set[tuple[int, ...]]:
        all_iters = set(self.model.space.points())
        return all_iters - self.n_set(stmt_index)

    def is_live(self, stmt_index: int, iteration: tuple[int, ...]) -> bool:
        return (stmt_index, iteration) in self.live

    # -- Val sets ----------------------------------------------------------
    def val_set(self, ref: Reference) -> set[tuple[int, ...]]:
        """``Val(ref, S_k)``: elements accessed by non-redundant computations."""
        info = self.model.arrays[ref.array]
        return {
            info.element_at(it, ref.c) for it in self.n_set(ref.stmt_index)
        }

    def edge_is_useful(self, dep: Dependence) -> bool:
        return bool(self.val_set(dep.src) & self.val_set(dep.dst))

    # -- useful dependence vectors -------------------------------------------
    def useful_vectors(self, array: str, flow_only: bool = False) -> list[RatVec]:
        """Particular solutions ``t`` of ``H t = r`` for each useful edge.

        With ``flow_only`` (duplicate-data strategy, Theorem 4) only flow
        edges contribute.  For a nonsingular ``H`` (the paper's Section
        III.C assumption) the solution is unique; for singular ``H`` we
        return the canonical particular solution -- callers add
        ``Ker(H)`` separately, so the spanned space is identical.
        """
        info = self.model.arrays[array]
        out: list[RatVec] = []
        for dep in self.useful_edges:
            if dep.array != array:
                continue
            if flow_only and dep.kind is not DependenceKind.FLOW:
                continue
            sol = solve_diophantine(info.h, dep.src.offset - dep.dst.offset)
            if sol is None:
                continue
            out.append(sol.particular)
        return out

    # -- reporting ------------------------------------------------------------
    def summary(self) -> str:
        lines = []
        for k in range(len(self.model.nest.statements)):
            label = self.model.nest.statement_label(k)
            n = len(self.n_set(k))
            total = self.model.space.size()
            lines.append(f"{label}: {n}/{total} computations non-redundant")
        lines.append(
            f"useful edges: {len(self.useful_edges)}, "
            f"false edges: {len(self.false_edges)}"
        )
        return "\n".join(lines)


def _liveness(trace: SequentialTrace) -> set[CompId]:
    """Least-fixpoint liveness over the trace (see module docstring)."""
    live: set[CompId] = set()
    worklist: list[CompId] = []
    # Seed: the last write to each element is never overwritten -> its
    # computation produces a final value and is live.
    for element, events in trace.timelines.items():
        writes = [e for e in events if e.is_write]
        if writes:
            comp = writes[-1].comp
            if comp not in live:
                live.add(comp)
                worklist.append(comp)
    comp_index = {c.comp: c for c in trace.computations}
    while worklist:
        comp = worklist.pop()
        record = comp_index[comp]
        read_time = (record.seq, 0)
        for element, _ref in record.read_elements:
            writer = trace.last_write_before(element, read_time)
            if writer is not None and writer.comp not in live:
                live.add(writer.comp)
                worklist.append(writer.comp)
    return live


def analyze_redundancy(model: ReferenceModel,
                       trace: Optional[SequentialTrace] = None) -> RedundancyAnalysis:
    """Run the full Section-III.C analysis on a reference model."""
    if trace is None:
        trace = build_trace(model)
    live = _liveness(trace)
    graphs = build_all_reference_graphs(model)
    analysis = RedundancyAnalysis(
        model=model, trace=trace, live=live, graphs=graphs
    )
    for g in graphs.values():
        for dep in g.edges:
            (analysis.useful_edges
             if analysis.edge_is_useful(dep)
             else analysis.false_edges).append(dep)
    return analysis
