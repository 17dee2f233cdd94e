"""The sequential interpreter: the golden model.

Executes a loop nest exactly as written -- iterations in lexicographic
order, statements in textual order, RHS reads before the LHS write --
in place on the arrays' flat value lists (:func:`run_sequential`).  It
has no backend: it is what every engine tier is checked against.
A statement is built *once per run* into closures over the iteration
tuple (:func:`build_statement`): node dispatch, index positions and
scalar bindings are resolved at build time, and an iteration pays one
call per node; a *binder* is handed each reference's array, coordinates
(:func:`build_coords`) and, when :func:`_affine` proves every subscript,
their integer forms, once, and returns its read ``it -> value`` (interp:
the block's region).  The closures keep the definition's operations and
their order -- ``float()`` leaves, left before right, RHS before LHS
coordinates -- so the *sequence of reads* (it decides which access
raises first) and every bit of every value are those of walking the
tree; a subscript is ``int()`` of its float walk, or that same integer
in integer arithmetic where :func:`_affine` proves it so.

Slot folding (the golden run): an array is row-major, so a reference
whose subscripts are proven integer forms is one affine slot ``a . it +
k`` in the array's list (:meth:`DataSpace.slot_form`, which folds each
dimension's origin and stride in).  When the reference's extremes over
the iteration space's bounding box lie inside the array, a read is one
call, ``values[c0*it[p0] + c1*it[p1] + k]`` unrolled at up to 3 used
indices, and a write's position one slot closure.  Any other reference
-- a subscript outside the integer path, a rank mismatch, an array too
small for the box -- keeps the checked ``DataSpace.offset(coords(it))``,
so an out-of-range access raises at the same iteration, after the same
earlier writes.
No source text, no ``exec``, nothing shared with the kernel lowering it
is the reference for.
"""

from __future__ import annotations

from operator import add, itemgetter, mul, sub
from typing import Callable, Mapping, Optional

from repro.lang.ast import ArrayRef, Assign, BinOp, Const, Expr, LoopNest, Name, UnaryOp
from repro.lang.space import IterationSpace
from repro.runtime.arrays import Coords, DataSpace

#: a built expression: iteration tuple -> value
Evaluator = Callable[[tuple], float]
#: ``(array, coords, forms)`` -> the reference's read, ``it -> value``,
#: bound once per reference; ``coords`` is its ``it -> Coords``, and
#: ``forms`` its subscripts' :func:`_affine` forms when every one is
#: proven, else None
Binder = Callable[[str, Callable[[tuple], Coords], Optional[list]],
                  Evaluator]


class UnboundScalarError(KeyError):
    """A name that is neither a loop index nor a bound scalar: an error
    in the caller's input, raised before anything is evaluated."""

    def __str__(self) -> str:
        return (f"unbound name {self.args[0]!r}: not a loop index and no "
                f"scalar binding")


def build_expr(expr: Expr, indices: tuple[str, ...],
               scalars: Mapping[str, float], read: Binder,
               box: Optional[tuple] = None) -> Evaluator:
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
        operand = build_expr(expr.operand, indices, scalars, read, box)
        return lambda it: -operand(it)
    if isinstance(expr, BinOp):
        left = build_expr(expr.left, indices, scalars, read, box)
        right = build_expr(expr.right, indices, scalars, read, box)
        if expr.op == "+":
            return lambda it: left(it) + right(it)
        if expr.op == "-":
            return lambda it: left(it) - right(it)
        if expr.op == "*":
            return lambda it: left(it) * right(it)
        return lambda it: left(it) / right(it)
    if isinstance(expr, ArrayRef):
        forms = _forms(expr, indices, box)
        return read(expr.array,
                    build_coords(expr, indices, scalars, read, box, forms),
                    forms)
    raise TypeError(f"cannot evaluate {expr!r}")


def _affine(expr: Expr, indices: tuple[str, ...], box: tuple):
    """``expr`` as ``[a_1, ..., a_n, k]`` (``a . it + k``) if it is integer
    affine in the indices and no value its float walk passes through on
    ``box`` reaches 2**53 (below it, that walk is exact); else ``None``.
    Not ``lang.affine.affine_of``: the kernel lowering uses that one."""
    n = len(indices)
    form = None
    if isinstance(expr, Const) and float(expr.value).is_integer():
        form = [0] * n + [int(float(expr.value))]
    elif isinstance(expr, Name) and expr.ident in indices:   # not a scalar
        form = [int(index == expr.ident) for index in indices] + [0]
    elif isinstance(expr, UnaryOp):
        form = _affine(expr.operand, indices, box)
        form = form and [-a for a in form]
    elif isinstance(expr, BinOp) and expr.op != "/":
        left = _affine(expr.left, indices, box)
        right = _affine(expr.right, indices, box)
        if left is None or right is None:
            return None
        if expr.op == "+":
            form = list(map(add, left, right))
        elif expr.op == "-":
            form = list(map(sub, left, right))
        elif not any(right[:n]):   # times a constant
            form = [a * right[n] for a in left]
        elif not any(left[:n]):
            form = [a * left[n] for a in right]
    if form is None:   # ``/``, index times index, a scalar, an array read
        return None
    reach = abs(form[n]) + sum(abs(a) * max(abs(lo), abs(hi))
                               for a, lo, hi in zip(form, *box))
    return form if reach < 2 ** 53 else None


def _in_integers(forms: list, n: int) -> Callable[[tuple], Coords]:
    """One closure computing every :func:`_affine` form ``a . it + k``
    over ``n`` indices: unrolled as ``c * it[p] + k`` at ranks 1 to 3
    when no form has two indices (a constant's ``c`` is 0), else summed."""
    def summed(it):
        return tuple([sum(map(mul, a, it)) + k for *a, k in forms])

    terms = []
    for *coeffs, k in forms:
        used = [p for p, c in enumerate(coeffs) if c] or [0]
        if len(used) > 1 or not n:
            return summed
        terms.append((used[0], coeffs[used[0]], k))
    if not 1 <= len(terms) <= 3:
        return summed
    (p0, c0, k0), (p1, c1, k1), (p2, c2, k2) = (terms + [(0, 0, 0)] * 2)[:3]
    return (lambda it: (c0 * it[p0] + k0,),
            lambda it: (c0 * it[p0] + k0, c1 * it[p1] + k1),
            lambda it: (c0 * it[p0] + k0, c1 * it[p1] + k1,
                        c2 * it[p2] + k2))[len(terms) - 1]


def _forms(ref: ArrayRef, indices: tuple[str, ...],
           box: Optional[tuple]) -> Optional[list]:
    """Every subscript's :func:`_affine` form, or None unless each one
    is proven on ``box``."""
    if box is None:
        return None
    forms = [_affine(s, indices, box) for s in ref.subscripts]
    return None if None in forms else forms


def build_coords(ref: ArrayRef, indices: tuple[str, ...],
                 scalars: Mapping[str, float], read: Binder,
                 box: Optional[tuple] = None,
                 forms: Optional[list] = None) -> Callable[[tuple], Coords]:
    """The reference's subscripts, in order, each as an integer: the
    iteration tuple's ``itemgetter`` when they are its bare indices (at
    rank 2 or more; at rank 1 it returns no tuple), one closure in
    integers when :func:`_affine` proves each exact on ``box`` (``forms``,
    if the caller has them), else ``int()`` of each one's float walk."""
    forms = forms or _forms(ref, indices, box)
    if forms is not None:
        n = len(indices)
        bare = [form.index(1) for form in forms
                if form[n] == 0 and form.count(0) == n
                and form.count(1) == 1]
        if len(bare) == len(forms) >= 2:
            return itemgetter(*bare)
        return _in_integers(forms, n)
    walks = [build_expr(s, indices, scalars, read, box)
             for s in ref.subscripts]
    return lambda it: tuple([int(walk(it)) for walk in walks])


def read_at(values, a: list, k: int) -> Evaluator:
    """``it -> values[a . it + k]``, unrolled at up to 3 used indices,
    so a read is one call; over ``range(len(values))``, whose items are
    their own positions, it is the slot itself."""
    used = [(c, p) for p, c in enumerate(a) if c]
    if len(used) > 3:
        return lambda it: values[sum(map(mul, a, it)) + k]
    (c0, p0), (c1, p1), (c2, p2) = (used + [(0, 0)] * 3)[:3]
    return (lambda it: values[k],
            lambda it: values[c0 * it[p0] + k],
            lambda it: values[c0 * it[p0] + c1 * it[p1] + k],
            lambda it: values[c0 * it[p0] + c1 * it[p1] + c2 * it[p2] + k],
            )[len(used)]


def build_statement(stmt: Assign, indices: tuple[str, ...],
                    scalars: Mapping[str, float], read: Binder,
                    box: Optional[tuple] = None,
                    ) -> tuple[str, Callable[[tuple], Coords], Evaluator]:
    """``(lhs array, lhs coords, rhs)``; the caller evaluates ``rhs``
    first, then the coordinates, then writes.  The LHS subscripts are
    affine in the indices: no reads (no binder), no scalars."""
    rhs = build_expr(stmt.rhs, indices, scalars, read, box)
    coords = build_coords(stmt.lhs, indices, {}, None, box)
    return stmt.lhs.array, coords, rhs


def eval_expr(expr: Expr, env: Mapping[str, int],
              scalars: Mapping[str, float]) -> float:
    """Evaluate an expression that reads no array, given loop-index
    bindings."""
    return build_expr(expr, tuple(env), scalars, None)(tuple(env.values()))


def run_sequential(
    nest: LoopNest,
    arrays: dict[str, DataSpace],
    scalars: Optional[Mapping[str, float]] = None,
    space: Optional[IterationSpace] = None,
) -> dict[str, DataSpace]:
    """Run the nest over ``arrays`` in place; returns ``arrays``.

    Every read and write goes straight to ``arrays[name].values``.  A
    reference whose subscripts :func:`_affine` proves and whose extremes
    over the bounding box lie inside its array
    (:meth:`~DataSpace.slot_form`) is one slot ``a . it + k``; any other
    goes through the array's checked :meth:`~DataSpace.offset`, so a run
    that raises on iteration *k* leaves exactly the writes of the
    iterations before it.  Arrays the nest does not name are not looked
    at.
    """
    from repro.obs.trace import current_tracer

    scalars = scalars or {}
    space = space or IterationSpace(nest)
    with current_tracer().span("engine.run_nest", category="engine",
                               backend="interp",
                               nest=nest.name or "<anon>",
                               statements=len(nest.statements)) as sp:
        named = {array: arrays[array] for array in nest.array_names()}
        box = space.bounding_box()

        def bind(array, coords, forms, values):
            """``it -> values[the reference's position]``: folded when
            :meth:`~DataSpace.slot_form` proves it, else checked."""
            slot = forms and named[array].slot_form(forms, box)
            if slot:
                return read_at(values, *slot)
            offset = named[array].offset
            return lambda it: values[offset(coords(it))]

        def read(array, coords, forms):
            return bind(array, coords, forms, named[array].values)

        statements = []
        for stmt in nest.statements:
            array, coords, rhs = build_statement(
                stmt, nest.indices, scalars, read, box)
            values = named[array].values
            statements.append((values, rhs, bind(
                array, coords, _forms(stmt.lhs, nest.indices, box),
                range(len(values)))))
        for it in space.iterate():
            for values, rhs, slot in statements:
                value = rhs(it)
                values[slot(it)] = value
        # a completed sequential run executed every statement of every
        # point: the work is stated once here, not counted per iteration
        points = space.size()
        sp.set(iterations=points,
               statements_executed=points * len(nest.statements))
    return arrays
