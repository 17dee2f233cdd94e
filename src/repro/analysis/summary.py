"""Dependence summaries: the compiler's ``-fdump-deps`` view.

Aggregates every dependence of a nest into a tabular summary --
kind, endpoints, distance vector (unique for nonsingular ``H``,
lattice-described otherwise), whether it is loop-carried, and (after
redundancy analysis) whether it is useful or false.  Feeds the report
module and gives tests a single structured view over the analysis.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.analysis.dependence import Dependence, DependenceKind, all_dependences
from repro.analysis.redundancy import RedundancyAnalysis
from repro.analysis.references import ReferenceModel


@dataclass(frozen=True)
class DependenceRow:
    """One summarized dependence."""

    array: str
    kind: str
    src: str                      # e.g. "S1.W"
    dst: str                      # e.g. "S2.R1"
    witness: tuple[int, ...]
    distance: Optional[tuple[int, ...]]  # unique distance, if H nonsingular
    lattice_rank: int             # solution-set dimension beyond a point
    loop_carried: bool
    classification: str           # "useful" / "false" / "" (no analysis)


def _ref_name(ref) -> str:
    role = "W" if ref.is_write else f"R{ref.slot}"
    return f"S{ref.stmt_index + 1}.{role}"


def summarize_dependences(
    model: ReferenceModel,
    redundancy: Optional[RedundancyAnalysis] = None,
) -> list[DependenceRow]:
    """The full dependence table of a nest, deterministic order."""
    deps = all_dependences(model)
    if redundancy is not None:
        useful_keys = {
            (d.array, d.src.key, d.dst.key) for d in redundancy.useful_edges
        }
        false_keys = {
            (d.array, d.src.key, d.dst.key) for d in redundancy.false_edges
        }
    rows: list[DependenceRow] = []
    for dep in deps:
        info = model.arrays[dep.array]
        kernel_dim = len(info.smith.kernel)
        # a nonsingular H has one solution: the witness is the distance
        distance = dep.witness if kernel_dim == 0 else None
        if redundancy is None:
            cls = ""
        else:
            key = (dep.array, dep.src.key, dep.dst.key)
            cls = ("useful" if key in useful_keys
                   else "false" if key in false_keys else "")
        rows.append(DependenceRow(
            array=dep.array,
            kind=dep.kind.value,
            src=_ref_name(dep.src),
            dst=_ref_name(dep.dst),
            witness=dep.witness,
            distance=distance,
            lattice_rank=kernel_dim,
            loop_carried=dep.witness > (0,) * len(dep.witness),
            classification=cls,
        ))
    rows.sort(key=lambda r: (r.array, r.src, r.dst, r.kind))
    return rows


def format_dependence_table(rows: list[DependenceRow]) -> str:
    """Plain-text rendering of the dependence table."""
    if not rows:
        return "(no dependences)"
    header = (f"{'array':<6} {'kind':<7} {'src':<7} {'dst':<7} "
              f"{'distance':<12} {'carried':<8} {'class':<7}")
    lines = [header, "-" * len(header)]
    for r in rows:
        dist = (str(r.distance) if r.distance is not None
                else f"{r.witness}+L{r.lattice_rank}")
        lines.append(
            f"{r.array:<6} {r.kind:<7} {r.src:<7} {r.dst:<7} "
            f"{dist:<12} {('yes' if r.loop_carried else 'no'):<8} "
            f"{r.classification:<7}")
    return "\n".join(lines)
