"""Exact data-dependence testing and classification.

A dependence from access ``a`` to access ``b`` on array ``A`` exists iff
there are iterations ``i_1, i_2`` in the iteration space with

    H i_1 + c_a = H i_2 + c_b      (same element), and
    (i_1, a) executes before (i_2, b).

Writing ``t = i_2 - i_1`` this becomes: ``H t = c_a - c_b`` has an
integer solution ``t`` that is a difference of two in-space iterations
and is lexicographically positive (or zero with ``a`` textually before
``b``).  We decide this exactly: the Smith normal form of ``H`` gives
the integer solutions inside the difference box.

Kinds follow the roles: write-then-read = flow (delta^f), read-then-
write = anti (delta^a), write-write = output (delta^o), read-read =
input (delta^i).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Optional

from repro.analysis.references import ArrayInfo, Reference, ReferenceModel
from repro.lang.space import IterationSpace
from repro.ratlinalg.smith import SmithForm

Coords = tuple[int, ...]


class DependenceKind(enum.Enum):
    FLOW = "flow"      # delta^f : write -> read
    ANTI = "anti"      # delta^a : read -> write
    OUTPUT = "output"  # delta^o : write -> write
    INPUT = "input"    # delta^i : read -> read

    @staticmethod
    def of(src_is_write: bool, dst_is_write: bool) -> "DependenceKind":
        if src_is_write and not dst_is_write:
            return DependenceKind.FLOW
        if not src_is_write and dst_is_write:
            return DependenceKind.ANTI
        if src_is_write and dst_is_write:
            return DependenceKind.OUTPUT
        return DependenceKind.INPUT


@dataclass(frozen=True)
class Dependence:
    """A witnessed dependence ``src -> dst`` with one iteration-difference."""

    array: str
    src: Reference
    dst: Reference
    kind: DependenceKind
    witness: Coords  # t = i_dst - i_src for one realizing pair

    def __repr__(self) -> str:
        return (f"Dependence({self.kind.value}: S{self.src.stmt_index + 1}"
                f"{'W' if self.src.is_write else 'R'} -> S{self.dst.stmt_index + 1}"
                f"{'W' if self.dst.is_write else 'R'} on {self.array}, "
                f"t={self.witness})")


def access_precedes(a: Reference, b: Reference) -> bool:
    """Within one iteration, does access ``a`` happen before access ``b``?

    Statement order is primary; within a statement all RHS reads happen
    before the LHS write (the value is computed, then stored).
    """
    if a.stmt_index != b.stmt_index:
        return a.stmt_index < b.stmt_index
    # same statement: a read precedes the write; two reads are unordered
    # for dependence purposes (reads commute), two writes impossible.
    return (not a.is_write) and b.is_write


def _lattice_witness(smith: SmithForm, r: Coords, space: IterationSpace,
                     accept: Optional[Callable[[Coords], bool]] = None,
                     ) -> Optional[Coords]:
    """The first integer ``t`` with ``H t = r`` in the difference box of
    ``space`` that ``accept`` takes and, on a non-rectangular space, that
    some pair of iterations realizes; ``None`` if there is none.

    The one lattice search behind every dependence question: the Smith
    normal form of ``H`` gives the integer solutions in the box, in a
    fixed order.
    """
    rectangular = space.is_rectangular()
    for t in smith.solutions_in_box(r, *space.difference_box()):
        if ((accept is None or accept(t))
                and (rectangular or space.pair_exists(t))):
            return t
    return None


def _difference(src: Reference, dst: Reference) -> Coords:
    return tuple(a - b for a, b in zip(src.c, dst.c))


def dependence_between(
    info: ArrayInfo,
    src: Reference,
    dst: Reference,
    space: IterationSpace,
) -> Optional[Dependence]:
    """The dependence ``src -> dst`` if it exists, else ``None``.

    Exact for rectangular iteration spaces; for affine-bounded spaces the
    candidate difference is additionally verified against the concrete
    space (``IterationSpace.pair_exists``), so the answer stays exact.
    """
    same_iter_ok = access_precedes(src, dst)

    def ordered(t: Coords) -> bool:     # tuples compare lexicographically
        zero = (0,) * len(t)
        return t > zero or (same_iter_ok and t == zero)

    witness = _lattice_witness(info.smith,
                               _difference(src, dst), space, ordered)
    if witness is None:
        return None
    return Dependence(
        array=info.name, src=src, dst=dst,
        kind=DependenceKind.of(src.is_write, dst.is_write),
        witness=witness,
    )


def array_dependences(info: ArrayInfo,
                      space: IterationSpace) -> list[Dependence]:
    """Every dependence between distinct references of one array, in
    reference order (source, then sink)."""
    out: list[Dependence] = []
    for a in info.references:
        for b in info.references:
            if a is b:
                continue
            dep = dependence_between(info, a, b, space)
            if dep is not None:
                out.append(dep)
    return out


def all_dependences(model: ReferenceModel) -> list[Dependence]:
    """Every dependence between distinct references, all arrays."""
    return [dep for info in model.arrays.values()
            for dep in array_dependences(info, model.space)]


def loop_carried_dependence_exists(
    info: ArrayInfo,
    src: Reference,
    dst: Reference,
    space: IterationSpace,
) -> bool:
    """Is there a dependence ``src -> dst`` across *distinct* iterations?

    Like :func:`dependence_between` but requiring ``t`` strictly
    lexicographically positive.  A loop is a For-all loop (in the
    Ramanujam-Sadayappan sense) iff no non-input dependence is loop
    carried.
    """
    return _lattice_witness(info.smith,
                            _difference(src, dst), space,
                            lambda t: t > (0,) * len(t)) is not None


def is_forall_loop(model: ReferenceModel) -> bool:
    """True iff no flow/anti/output dependence crosses iterations."""
    for info in model.arrays.values():
        refs = info.references
        for a in refs:
            for b in refs:
                if a is b or (not a.is_write and not b.is_write):
                    continue  # read-read (input) deps don't constrain For-all
                if loop_carried_dependence_exists(info, a, b, model.space):
                    return False
    return True


def has_flow_dependence(info: ArrayInfo, space: IterationSpace) -> bool:
    """Does any flow dependence exist on this array? (Definition 5 test)."""
    for w in info.writes():
        for r in info.reads():
            if dependence_between(info, w, r, space) is not None:
                return True
    return False


def is_fully_duplicable(info: ArrayInfo, space: IterationSpace) -> bool:
    """Definition 5: fully duplicable iff the array carries no flow dependence."""
    return not has_flow_dependence(info, space)
