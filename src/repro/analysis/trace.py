"""The sequential access trace of a loop nest.

The redundancy analysis of Section III.C is decided *exactly* on the
finite iteration space by replaying the loop's accesses in sequential
(lexicographic) order: each computation ``S_k(i)`` performs its RHS
reads, then its LHS write.  The trace records who touched which array
element when -- the per-element timelines drive the liveness fixpoint
in :mod:`repro.analysis.redundancy`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from repro.analysis.references import Reference, ReferenceModel

# An array element is identified by (array name, coordinate tuple).
Element = tuple[str, tuple[int, ...]]
# A computation is one statement instance: (stmt_index, iteration).
CompId = tuple[int, tuple[int, ...]]


@dataclass(frozen=True)
class AccessEvent:
    """One read or write of one element by one computation.

    ``time`` orders all events totally: ``(sequence, phase)`` where
    ``sequence`` numbers computations in execution order and ``phase``
    is 0 for reads, 1 for the write.
    """

    time: tuple[int, int]
    is_write: bool
    comp: CompId
    element: Element
    ref: Reference


@dataclass(frozen=True)
class Computation:
    """One executed statement instance with its resolved accesses."""

    seq: int
    comp: CompId
    write_element: Element
    read_elements: tuple[tuple[Element, Reference], ...]
    write_ref: Reference


@dataclass
class SequentialTrace:
    """The full trace plus per-element timelines."""

    model: ReferenceModel
    computations: list[Computation]
    # element -> ordered (time, is_write, comp) triples
    timelines: dict[Element, list[AccessEvent]] = field(default_factory=dict)

    def events(self) -> Iterator[AccessEvent]:
        for evs in self.timelines.values():
            yield from evs

    def writes_to(self, element: Element) -> list[AccessEvent]:
        return [e for e in self.timelines.get(element, []) if e.is_write]

    def reads_of(self, element: Element) -> list[AccessEvent]:
        return [e for e in self.timelines.get(element, []) if not e.is_write]

    def last_write_before(self, element: Element, time: tuple[int, int]):
        """The most recent write event to ``element`` strictly before ``time``."""
        best = None
        for ev in self.timelines.get(element, []):
            if ev.is_write and ev.time < time:
                best = ev
            elif ev.time >= time:
                break
        return best


def build_trace(model: ReferenceModel) -> SequentialTrace:
    """Replay the nest sequentially and record every access."""
    nest = model.nest
    refs_by_stmt: dict[int, tuple[Reference, list[Reference]]] = {}
    for k in range(len(nest.statements)):
        stmt_refs = [r for r in model.all_references() if r.stmt_index == k]
        write = next(r for r in stmt_refs if r.is_write)
        reads = [r for r in stmt_refs if not r.is_write]
        refs_by_stmt[k] = (write, reads)

    computations: list[Computation] = []
    timelines: dict[Element, list[AccessEvent]] = {}
    seq = 0
    for iteration in model.space.iterate():
        for k in range(len(nest.statements)):
            write_ref, read_refs = refs_by_stmt[k]
            comp: CompId = (k, iteration)
            read_elems: list[tuple[Element, Reference]] = []
            for rr in read_refs:
                elem: Element = (rr.array, model.arrays[rr.array].element_at(iteration, rr.c))
                read_elems.append((elem, rr))
                ev = AccessEvent(time=(seq, 0), is_write=False, comp=comp,
                                 element=elem, ref=rr)
                timelines.setdefault(elem, []).append(ev)
            welem: Element = (
                write_ref.array,
                model.arrays[write_ref.array].element_at(iteration, write_ref.c),
            )
            ev = AccessEvent(time=(seq, 1), is_write=True, comp=comp,
                             element=welem, ref=write_ref)
            timelines.setdefault(welem, []).append(ev)
            computations.append(
                Computation(seq=seq, comp=comp, write_element=welem,
                            read_elements=tuple(read_elems), write_ref=write_ref)
            )
            seq += 1
    return SequentialTrace(model=model, computations=computations, timelines=timelines)
