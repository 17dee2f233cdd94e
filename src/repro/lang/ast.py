"""AST for the loop mini-language.

The top-level object is :class:`LoopNest` -- a *perfectly nested,
normalized* ``n``-deep loop (the paper's Section II model).  Expression
nodes are deliberately small: constants, names (loop indices or free
scalar parameters), array references with affine subscripts, unary minus
and the four binary operators.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterator, Union

from repro._lazy import Sidecar

if TYPE_CHECKING:
    from repro.lang.affine import AffineExpr


class Expr:
    """Base class for expression nodes."""

    def array_refs(self) -> Iterator["ArrayRef"]:
        """All array references in this expression, left to right."""
        if isinstance(self, ArrayRef):
            yield self
            for s in self.subscripts:
                yield from s.array_refs()
        elif isinstance(self, BinOp):
            yield from self.left.array_refs()
            yield from self.right.array_refs()
        elif isinstance(self, UnaryOp):
            yield from self.operand.array_refs()

    def names(self) -> Iterator[str]:
        """All identifiers (indices and scalars) in this expression."""
        if isinstance(self, Name):
            yield self.ident
        elif isinstance(self, ArrayRef):
            for s in self.subscripts:
                yield from s.names()
        elif isinstance(self, BinOp):
            yield from self.left.names()
            yield from self.right.names()
        elif isinstance(self, UnaryOp):
            yield from self.operand.names()


@dataclass(frozen=True)
class Const(Expr):
    value: int

    def __repr__(self) -> str:
        return f"Const({self.value})"


@dataclass(frozen=True)
class Name(Expr):
    """A loop index or a free scalar parameter; resolved by context."""

    ident: str

    def __repr__(self) -> str:
        return f"Name({self.ident})"


@dataclass(frozen=True)
class BinOp(Expr):
    op: str  # one of + - * /
    left: Expr
    right: Expr

    def __post_init__(self):
        if self.op not in "+-*/":
            raise ValueError(f"unknown operator {self.op!r}")

    def __repr__(self) -> str:
        return f"BinOp({self.op!r}, {self.left!r}, {self.right!r})"


@dataclass(frozen=True)
class UnaryOp(Expr):
    op: str  # only '-'
    operand: Expr

    def __post_init__(self):
        if self.op != "-":
            raise ValueError(f"unknown unary operator {self.op!r}")


@dataclass(frozen=True)
class ArrayRef(Expr):
    """``array[sub_1, ..., sub_d]`` with affine subscripts."""

    array: str
    subscripts: tuple[Expr, ...]

    def __repr__(self) -> str:
        return f"ArrayRef({self.array}, {list(self.subscripts)})"


@dataclass(frozen=True)
class Assign:
    """One assignment statement ``label: lhs = rhs;``."""

    lhs: ArrayRef
    rhs: Expr
    label: str = ""

    def reads(self) -> Iterator[ArrayRef]:
        """Array references read by this statement (RHS, plus any refs in
        the LHS *subscripts* -- subscripts are affine so there are none in
        practice, but we stay general)."""
        yield from self.rhs.array_refs()
        for s in self.lhs.subscripts:
            yield from s.array_refs()


@dataclass(frozen=True)
class LoopNest:
    """A perfectly nested normalized loop.

    ``indices[k]`` iterates from ``lowers[k]`` to ``uppers[k]``
    inclusive, where the bounds are expressions affine in
    ``indices[:k]``.  ``statements`` is the (ordered) loop body.
    """

    indices: tuple[str, ...]
    lowers: tuple[Expr, ...]
    uppers: tuple[Expr, ...]
    statements: tuple[Assign, ...]
    name: str = ""

    def __post_init__(self):
        n = len(self.indices)
        if len(self.lowers) != n or len(self.uppers) != n:
            raise ValueError("bounds/indices arity mismatch")
        if len(set(self.indices)) != n:
            raise ValueError(f"duplicate loop indices in {self.indices}")
        if not self.statements:
            raise ValueError("loop nest with an empty body")
        seen = set()
        for k, s in enumerate(self.statements):
            if s.label and s.label in seen:
                raise ValueError(f"duplicate statement label {s.label}")
            seen.add(s.label)

    @property
    def bound_forms(self) -> tuple[tuple[AffineExpr, AffineExpr], ...]:
        """Each loop's ``(lower, upper)`` as affine forms over ``indices``,
        derived once per nest: the parser checks them, ``IterationSpace``
        and ``transform_nest`` read them.  A ``NotAffineError`` names the
        first bound that is not affine."""
        return _BOUND_FORMS.get(self)

    @property
    def depth(self) -> int:
        return len(self.indices)

    def array_names(self) -> list[str]:
        """All arrays referenced, in first-appearance order."""
        out: list[str] = []
        for s in self.statements:
            for ref in [s.lhs] + list(s.reads()):
                if ref.array not in out:
                    out.append(ref.array)
        return out

    def statement_label(self, k: int) -> str:
        s = self.statements[k]
        return s.label or f"S{k + 1}"


def _bound_forms(nest: LoopNest) -> tuple:
    from repro.lang.affine import NotAffineError, affine_of

    def form(which: str, index: str, bound: Expr) -> AffineExpr:
        try:
            return affine_of(bound, nest.indices)
        except NotAffineError as exc:
            raise NotAffineError(f"{which} bound of loop {index!r} is "
                                 f"not affine: {exc}") from exc

    return tuple((form("lower", i, lo), form("upper", i, hi))
                 for i, lo, hi in zip(nest.indices, nest.lowers, nest.uppers))


_BOUND_FORMS = Sidecar(_bound_forms)

Node = Union[Expr, Assign, LoopNest]
