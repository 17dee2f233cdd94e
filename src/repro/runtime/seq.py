"""The sequential interpreter: the golden model.

Executes a loop nest exactly as written -- iterations in lexicographic
order, statements in textual order, RHS reads before the LHS write --
in place on the arrays' flat value lists (:func:`run_sequential`).  It
has no backend: it is what every engine tier is checked against.
A statement is built *once per run* into closures over the iteration
tuple (:func:`build_statement`): node dispatch, index positions and
scalar bindings are resolved at build time, and an iteration pays one
call per node.  The closures keep the definition's operations and
their order -- ``float()`` leaves, left operand before right,
``int()``-truncated subscripts, RHS before LHS coordinates -- so the
*sequence of reads* (it decides which access raises first) and every
bit of every value are those of walking the tree.  No source text, no
``exec``, nothing shared with the kernel lowering it is the reference
for.
"""

from __future__ import annotations

from typing import Callable, Mapping, Optional

from repro.lang.ast import ArrayRef, Assign, BinOp, Const, Expr, LoopNest, Name, UnaryOp
from repro.lang.space import IterationSpace
from repro.runtime.arrays import Coords, DataSpace

Reader = Callable[[str, Coords], float]
#: a built expression: iteration tuple -> value
Evaluator = Callable[[tuple], float]


class UnboundScalarError(KeyError):
    """A name that is neither a loop index nor a bound scalar: an error
    in the caller's input, raised before anything is evaluated."""

    def __str__(self) -> str:
        return (f"unbound name {self.args[0]!r}: not a loop index and no "
                f"scalar binding")


def build_expr(expr: Expr, indices: tuple[str, ...],
               scalars: Mapping[str, float], read: Reader) -> Evaluator:
    """``expr`` as a closure over the iteration tuple ``indices`` names."""
    if isinstance(expr, Const):
        value = float(expr.value)
        return lambda it: value
    if isinstance(expr, Name):
        if expr.ident in indices:
            pos = indices.index(expr.ident)
            return lambda it: float(it[pos])
        if expr.ident in scalars:
            value = float(scalars[expr.ident])
            return lambda it: value
        raise UnboundScalarError(expr.ident)
    if isinstance(expr, UnaryOp):
        operand = build_expr(expr.operand, indices, scalars, read)
        return lambda it: -operand(it)
    if isinstance(expr, BinOp):
        left = build_expr(expr.left, indices, scalars, read)
        right = build_expr(expr.right, indices, scalars, read)
        if expr.op == "+":
            return lambda it: left(it) + right(it)
        if expr.op == "-":
            return lambda it: left(it) - right(it)
        if expr.op == "*":
            return lambda it: left(it) * right(it)
        return lambda it: left(it) / right(it)
    if isinstance(expr, ArrayRef):
        array, coords = expr.array, build_coords(expr, indices, scalars, read)
        return lambda it: read(array, coords(it))
    raise TypeError(f"cannot evaluate {expr!r}")


def build_coords(ref: ArrayRef, indices: tuple[str, ...],
                 scalars: Mapping[str, float],
                 read: Reader) -> Callable[[tuple], Coords]:
    """The reference's subscripts, in order, each truncated by ``int()``."""
    subs = [build_expr(s, indices, scalars, read) for s in ref.subscripts]
    if len(subs) == 1:
        (s0,) = subs
        return lambda it: (int(s0(it)),)
    if len(subs) == 2:
        s0, s1 = subs
        return lambda it: (int(s0(it)), int(s1(it)))
    return lambda it: tuple([int(s(it)) for s in subs])


def _no_read(array: str, coords: Coords) -> float:  # pragma: no cover
    raise AssertionError("array read inside a subscript")


def build_statement(stmt: Assign, indices: tuple[str, ...],
                    scalars: Mapping[str, float], read: Reader,
                    ) -> tuple[str, Callable[[tuple], Coords], Evaluator]:
    """``(lhs array, lhs coords, rhs)``; the caller evaluates ``rhs``
    first, then the coordinates, then writes.  The LHS subscripts are
    affine in the indices: no reads, no scalars."""
    rhs = build_expr(stmt.rhs, indices, scalars, read)
    return stmt.lhs.array, build_coords(stmt.lhs, indices, {}, _no_read), rhs


def eval_expr(expr: Expr, env: Mapping[str, int], scalars: Mapping[str, float],
              read: Reader) -> float:
    """Evaluate an expression given loop-index bindings and a read callback."""
    return build_expr(expr, tuple(env), scalars, read)(tuple(env.values()))


def subscript_coords(ref: ArrayRef, env: Mapping[str, int]) -> Coords:
    """Resolve a reference's subscripts (affine, so no reads needed)."""
    return build_coords(ref, tuple(env), {}, _no_read)(tuple(env.values()))


def run_sequential(
    nest: LoopNest,
    arrays: dict[str, DataSpace],
    scalars: Optional[Mapping[str, float]] = None,
    space: Optional[IterationSpace] = None,
) -> dict[str, DataSpace]:
    """Run the nest over ``arrays`` in place; returns ``arrays``.

    Every read and write goes straight to ``arrays[name].values``
    through the array's own :meth:`~DataSpace.offset`, so a run that
    raises on iteration *k* leaves exactly the writes of the iterations
    before it.  Arrays the nest does not name are not looked at.
    """
    from repro.obs.trace import current_tracer

    scalars = scalars or {}
    space = space or IterationSpace(nest)
    with current_tracer().span("engine.run_nest", category="engine",
                               backend="interp",
                               nest=nest.name or "<anon>",
                               statements=len(nest.statements)) as sp:
        touched = {array: (arrays[array].values, arrays[array].offset)
                   for array in nest.array_names()}

        def read(array, coords):
            values, offset = touched[array]
            return values[offset(coords)]

        statements = []
        for stmt in nest.statements:
            array, coords, rhs = build_statement(
                stmt, nest.indices, scalars, read)
            statements.append((*touched[array], coords, rhs))
        for it in space.iterate():
            for values, offset, coords, rhs in statements:
                value = rhs(it)
                values[offset(coords(it))] = value
        # a completed sequential run executed every statement of every
        # point: the work is stated once here, not counted per iteration
        points = space.size()
        sp.set(iterations=points,
               statements_executed=points * len(nest.statements))
    return arrays
