"""The data reference graph ``G^A = (V^A, E^A)`` (Definition 6).

Vertices are the referenced array variables of one array, split into
writes ``W^A`` (LHS occurrences) and reads ``R^A`` (RHS occurrences).
Edges are the data dependences between them, labelled with their kind.
The exact dependence test of :mod:`repro.analysis.dependence` yields
precisely the connections the paper describes (output edges between
writes, input edges between reads, flow edges ``w -> r`` and anti edges
``r -> w`` according to the execution order) -- reproducing Fig. 7 for
loop L3.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

from repro.analysis.dependence import Dependence, DependenceKind, dependence_between
from repro.analysis.references import ArrayInfo, Reference, ReferenceModel


@dataclass
class DataReferenceGraph:
    """``G^A`` for one array: its vertices and labelled dependence edges."""

    array: str
    writes: list[Reference]
    reads: list[Reference]
    edges: list[Dependence]

    def vertex_name(self, ref: Reference) -> str:
        """Paper-style vertex names: ``w1, w2, ...`` / ``r1, r2, ...``."""
        if ref.is_write:
            return f"w{self.writes.index(ref) + 1}"
        return f"r{self.reads.index(ref) + 1}"

    def edges_of_kind(self, kind: DependenceKind) -> list[Dependence]:
        return [e for e in self.edges if e.kind == kind]

    def edge_names(self) -> list[tuple[str, str, str]]:
        """Edges as (src_name, dst_name, kind) triples, for display/tests."""
        return [
            (self.vertex_name(e.src), self.vertex_name(e.dst), e.kind.value)
            for e in self.edges
        ]

    def find_edge(self, src_name: str, dst_name: str) -> Optional[Dependence]:
        for e in self.edges:
            if (self.vertex_name(e.src) == src_name
                    and self.vertex_name(e.dst) == dst_name):
                return e
        return None

    def __iter__(self) -> Iterator[Dependence]:
        return iter(self.edges)


def build_reference_graph(model: ReferenceModel, array: str) -> DataReferenceGraph:
    """Construct ``G^A`` for ``array`` in the given model."""
    info: ArrayInfo = model.arrays[array]
    writes = info.writes()
    reads = info.reads()
    out = DataReferenceGraph(array=array, writes=writes, reads=reads, edges=[])
    for a in info.references:
        for b in info.references:
            if a is b:
                continue
            dep = dependence_between(info, a, b, model.space)
            if dep is not None:
                out.edges.append(dep)
    return out


def build_all_reference_graphs(model: ReferenceModel) -> dict[str, DataReferenceGraph]:
    return {name: build_reference_graph(model, name) for name in model.arrays}
