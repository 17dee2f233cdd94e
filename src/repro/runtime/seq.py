"""The sequential interpreter: the golden model.

Executes a loop nest exactly as written -- iterations in lexicographic
order, statements in textual order, RHS reads before the LHS write --
over :class:`~repro.runtime.arrays.DataSpace` storage (or anything
read/write callables provide).
"""

from __future__ import annotations

from typing import Callable, Mapping, Optional

from repro.lang.ast import ArrayRef, Assign, BinOp, Const, Expr, LoopNest, Name, UnaryOp
from repro.lang.space import IterationSpace
from repro.runtime.arrays import Coords, DataSpace

Reader = Callable[[str, Coords], float]
Writer = Callable[[str, Coords, float], None]


def eval_expr(expr: Expr, env: Mapping[str, int], scalars: Mapping[str, float],
              read: Reader) -> float:
    """Evaluate an expression given loop-index bindings and a read callback."""
    if isinstance(expr, Const):
        return float(expr.value)
    if isinstance(expr, Name):
        if expr.ident in env:
            return float(env[expr.ident])
        if expr.ident in scalars:
            return float(scalars[expr.ident])
        raise KeyError(
            f"unbound name {expr.ident!r}: not a loop index and no scalar binding"
        )
    if isinstance(expr, UnaryOp):
        return -eval_expr(expr.operand, env, scalars, read)
    if isinstance(expr, BinOp):
        lv = eval_expr(expr.left, env, scalars, read)
        rv = eval_expr(expr.right, env, scalars, read)
        if expr.op == "+":
            return lv + rv
        if expr.op == "-":
            return lv - rv
        if expr.op == "*":
            return lv * rv
        return lv / rv
    if isinstance(expr, ArrayRef):
        coords = tuple(
            int(eval_expr(s, env, scalars, read)) for s in expr.subscripts
        )
        return read(expr.array, coords)
    raise TypeError(f"cannot evaluate {expr!r}")


def subscript_coords(ref: ArrayRef, env: Mapping[str, int]) -> Coords:
    """Resolve a reference's subscripts (affine, so no reads needed)."""
    def no_read(a: str, c: Coords) -> float:  # pragma: no cover - affine guard
        raise AssertionError("array read inside a subscript")

    return tuple(int(eval_expr(s, env, {}, no_read)) for s in ref.subscripts)


def execute_statement(stmt: Assign, env: Mapping[str, int],
                      scalars: Mapping[str, float],
                      read: Reader, write: Writer) -> None:
    value = eval_expr(stmt.rhs, env, scalars, read)
    coords = subscript_coords(stmt.lhs, env)
    write(stmt.lhs.array, coords, value)


def run_sequential(
    nest: LoopNest,
    arrays: dict[str, DataSpace],
    scalars: Optional[Mapping[str, float]] = None,
    space: Optional[IterationSpace] = None,
    backend: Optional[str] = None,
    options: Optional[object] = None,
) -> dict[str, DataSpace]:
    """Run the nest in place over ``arrays``; returns ``arrays``.

    ``backend`` picks the execution engine (default: the interpreter);
    every engine is bit-identical to the interpreter on the final
    arrays.  ``options`` is a
    :class:`repro.api.RunOptions` supplying a default backend.
    """
    # local import: the engine layer's interp backend calls back into
    # execute_statement here
    from repro.obs.trace import current_tracer
    from repro.runtime.engine import resolve_engine

    if options is not None:
        backend = backend or options.backend
    scalars = scalars or {}
    space = space or IterationSpace(nest)
    engine = resolve_engine(backend)
    with current_tracer().span("engine.run_nest", category="engine",
                               backend=engine.name,
                               nest=nest.name or "<anon>",
                               statements=len(nest.statements)):
        engine.run_nest(nest, arrays, scalars, space)
    return arrays
