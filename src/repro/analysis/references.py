"""Reference extraction: from AST to ``A[H i + c]`` form.

Every array reference in the loop body is decomposed into its reference
matrix ``H`` (``d x n``, integer) and constant offset vector ``c``
(Section II).  References to the same array must share ``H`` --
*uniformly generated references*; anything else raises
:class:`NonUniformReferenceError` (the paper restricts its analysis to
this class because "little exploitable data dependence exists between
nonuniformly generated references").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import index, mul
from typing import TYPE_CHECKING

from repro._lazy import Sidecar
from repro.lang.affine import NotAffineError, affine_of
from repro.lang.ast import ArrayRef, LoopNest
from repro.lang.space import IterationSpace
from repro.ratlinalg.matrix import RatMat, RatVec

if TYPE_CHECKING:
    from repro.ratlinalg.smith import SmithForm


class NonUniformReferenceError(ValueError):
    """Two references to one array disagree on the reference matrix ``H``."""


@dataclass(frozen=True)
class Reference:
    """One referenced array variable ``A[H i + c]`` at a statement.

    ``stmt_index`` is the 0-based statement position; ``is_write`` marks
    the left-hand side.  ``slot`` disambiguates multiple reads of the
    same array within one statement (0 = LHS, then RHS reads in
    left-to-right order).  ``c`` is the integer offset, which codegen
    and :meth:`ArrayInfo.element_at` read.
    """

    array: str
    c: tuple[int, ...]
    stmt_index: int
    is_write: bool
    slot: int
    ast: ArrayRef

    @property
    def offset(self) -> RatVec:
        """``c`` as a rational vector, for the data-referenced vectors."""
        return RatVec(self.c)

    @property
    def key(self) -> tuple:
        return (self.array, self.stmt_index, self.is_write, self.slot)

    def describe(self, indices: tuple[str, ...]) -> str:
        from repro.lang.printer import expr_to_source

        subs = ", ".join(expr_to_source(s) for s in self.ast.subscripts)
        role = "W" if self.is_write else "R"
        return f"{self.array}[{subs}] ({role}@S{self.stmt_index + 1})"


@dataclass
class ArrayInfo:
    """All references to one array, with the shared reference matrix."""

    name: str
    h_rows: tuple[tuple[int, ...], ...]   # d x n integer reference matrix
    references: list[Reference] = field(default_factory=list)

    @property
    def smith(self) -> SmithForm:
        """The Smith normal form of ``H``, derived once per array: the
        dependence tests, Definition 4 / Theorem 2 and the certificate
        all read it."""
        return _SMITH.get(self)

    @property
    def h(self) -> RatMat:
        """``H`` as a rational matrix, for the rational linear algebra."""
        return RatMat(self.h_rows)

    @property
    def rank(self) -> int:
        return len(self.h_rows)

    @property
    def depth(self) -> int:
        return len(self.h_rows[0])

    def writes(self) -> list[Reference]:
        return [r for r in self.references if r.is_write]

    def reads(self) -> list[Reference]:
        return [r for r in self.references if not r.is_write]

    def distinct_offsets(self) -> list[RatVec]:
        """Offsets of the *distinct* referenced variables (paper's s variables)."""
        return list(dict.fromkeys(r.offset for r in self.references))

    def element_at(self, iteration, c: tuple[int, ...]) -> tuple[int, ...]:
        """The element ``H i + c`` touched at ``iteration`` via a reference's
        integer offset :attr:`Reference.c`; exact integer arithmetic, so a
        non-integral iteration raises ``TypeError`` instead of truncating."""
        if len(iteration) != self.depth:
            raise ValueError(
                f"iteration of length {len(iteration)} for depth {self.depth}")
        return tuple([index(sum(map(mul, row, iteration)) + cj)
                      for row, cj in zip(self.h_rows, c)])


def _smith(info: ArrayInfo) -> SmithForm:
    from repro.ratlinalg.smith import smith_normal_form

    return smith_normal_form(info.h_rows)


_SMITH = Sidecar(_smith)


@dataclass
class ReferenceModel:
    """The complete reference-pattern model of one loop nest."""

    nest: LoopNest
    space: IterationSpace
    arrays: dict[str, ArrayInfo]

    def all_references(self) -> list[Reference]:
        return [r for info in self.arrays.values() for r in info.references]


def _decompose(ref: ArrayRef, indices: tuple[str, ...]) -> tuple[tuple, tuple]:
    """Split ``A[sub_1..sub_d]`` into the integer rows of ``H`` (d x n)
    and the integer offset ``c``."""
    rows = []
    consts = []
    for sub in ref.subscripts:
        try:
            ae = affine_of(sub, indices)
        except NotAffineError as exc:
            raise NonUniformReferenceError(
                f"subscript of {ref.array} is not affine in {indices}: {exc}"
            ) from exc
        if not ae.is_integral():
            raise NonUniformReferenceError(
                f"subscript of {ref.array} has non-integer coefficients: {ae.render()}"
            )
        rows.append(ae.coeffs)
        consts.append(ae.const)
    return tuple(rows), tuple(consts)


def extract_references(nest: LoopNest) -> ReferenceModel:
    """Build the :class:`ReferenceModel`, enforcing uniform generation.

    Within one statement the LHS write gets ``slot`` 0 and RHS reads get
    slots 1, 2, ... in source order; the slot only disambiguates
    references, it has no semantic weight.
    """
    indices = nest.indices
    arrays: dict[str, ArrayInfo] = {}

    def visit(ref: ArrayRef, stmt_index: int, is_write: bool, slot: int) -> None:
        h_rows, c = _decompose(ref, indices)
        info = arrays.get(ref.array)
        if info is None:
            info = arrays[ref.array] = ArrayInfo(name=ref.array,
                                                 h_rows=h_rows)
        elif info.h_rows != h_rows:
            raise NonUniformReferenceError(
                f"array {ref.array} has non-uniformly generated references: "
                f"{info.h!r} vs {RatMat(h_rows)!r}"
            )
        info.references.append(
            Reference(array=ref.array, c=c, stmt_index=stmt_index,
                      is_write=is_write, slot=slot, ast=ref)
        )

    for k, stmt in enumerate(nest.statements):
        visit(stmt.lhs, k, True, 0)
        for slot, read in enumerate(stmt.rhs.array_refs(), start=1):
            visit(read, k, False, slot)

    return ReferenceModel(nest=nest, space=IterationSpace(nest), arrays=arrays)
