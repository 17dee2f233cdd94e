"""Kernel lowering: statements -> Python source, stated once.

The expression lowering, the one block-kernel emitter
(:func:`emit_iteration_kernel`: the paper's loop L' of Sec. IV,
parameterised by a :class:`KernelTarget`, which the codegen tier's
:func:`~repro.runtime.engine.codegen.emit.list_target` supplies), and
the bounded in-process kernel cache.  The bit-identity argument (float
leaves, exact constant folding, ``rank*nstmts + k`` stamps, the live
guard, promotion, the counter rule) lives in DESIGN.md, "Kernel
lowering".

Anything that cannot be lowered (non-affine subscripts, reads inside
subscripts) raises :class:`KernelCompileError`; the codegen tier refuses
such a plan before emitting and runs it on the interpreter, so lowering
never changes observable behavior -- only speed.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from operator import mul
from typing import Callable, Mapping, NamedTuple, Optional

from repro._lazy import Sidecar
from repro.lang.ast import (
    ArrayRef, Assign, BinOp, Expr, LoopNest, Name, UnaryOp,
)
from repro.runtime.seq import eval_expr


class KernelCompileError(ValueError):
    """The nest cannot be lowered; raised by :func:`value_src`."""


# ---------------------------------------------------------------------------
# expression lowering
# ---------------------------------------------------------------------------

def fold(expr: Expr, indices: tuple[str, ...],
         scalars: Mapping[str, float]) -> Optional[float]:
    """The value of a constant subtree -- computed by ``eval_expr``
    itself, so folding cannot change a bit -- or None."""
    if next(expr.array_refs(), None) is not None \
            or any(n in indices for n in expr.names()):
        return None
    try:
        return eval_expr(expr, {}, scalars)
    except ZeroDivisionError:
        return None  # defer the error to run time, like the interpreter


def value_src(expr: Expr, indices: tuple[str, ...],
              scalars: Mapping[str, float],
              read_src: Callable[[ArrayRef], str]) -> str:
    """Python source computing ``eval_expr(expr, ...)`` bit-for-bit;
    an index used as a value is ``_f<k>``, bound to ``float(i<k>)`` for
    each index :func:`value_indices` names."""
    folded = fold(expr, indices, scalars)
    if folded is not None:
        return f"({folded!r})"
    if isinstance(expr, Name):
        return f"_f{indices.index(expr.ident)}"

    def sub(e: Expr) -> str:
        return value_src(e, indices, scalars, read_src)

    if isinstance(expr, UnaryOp):
        return f"(- {sub(expr.operand)})"
    if isinstance(expr, BinOp):
        return f"({sub(expr.left)} {expr.op} {sub(expr.right)})"
    if isinstance(expr, ArrayRef):
        return read_src(expr)
    raise KernelCompileError(f"cannot lower {expr!r}")


def term_src(coeff: int, var: str) -> str:
    return var if coeff == 1 else f"{coeff}*{var}"


def sum_src(terms: list[str], const: int = 0) -> str:
    """``t0 + t1 + const``; a zero constant is dropped unless alone."""
    parts = list(terms)
    if const or not parts:
        parts.append(str(const))
    return " + ".join(parts)


def tuple_src(parts: list[str]) -> str:
    inner = ", ".join(parts)
    return f"({inner},)" if len(parts) == 1 else f"({inner})"


def value_indices(nest: LoopNest) -> set[int]:
    """Loop-index positions that appear *as values* (outside subscripts)."""
    idx = {name: k for k, name in enumerate(nest.indices)}
    used: set[int] = set()

    def visit(expr: Expr) -> None:
        if isinstance(expr, Name) and expr.ident in idx:
            used.add(idx[expr.ident])
        elif isinstance(expr, UnaryOp):
            visit(expr.operand)
        elif isinstance(expr, BinOp):
            visit(expr.left)
            visit(expr.right)
        # ArrayRef: subscripts are index *coordinates*, not values

    for stmt in nest.statements:
        visit(stmt.rhs)
    return used


def may_raise(expr: Expr, indices: tuple[str, ...],
              scalars: Mapping[str, float]) -> bool:
    """Whether ``expr`` keeps a division :func:`fold` could not do: the
    one float operation here that can raise (``ZeroDivisionError``)."""
    if fold(expr, indices, scalars) is not None:
        return False
    if isinstance(expr, BinOp):
        return expr.op == "/" or may_raise(expr.left, indices, scalars) \
            or may_raise(expr.right, indices, scalars)
    if isinstance(expr, UnaryOp):
        return may_raise(expr.operand, indices, scalars)
    return False


def promoted_writes(model, scalars: Mapping[str, float],
                    inner: set[int]) -> dict[str, int]:
    """Written array -> the statement ``k`` whose element an innermost
    loop binding the indices ``inner`` may keep in a local: ``k`` is the
    array's only writer, every reference to the array is ``k``'s
    left-hand side, whose ``H`` (the plan ``model``'s) does not move
    with ``inner``, and no right-hand side can raise half-way through
    the loop."""
    stmts = model.nest.statements
    if any(may_raise(st.rhs, model.nest.indices, scalars) for st in stmts):
        return {}
    refs = [ref for st in stmts for ref in (st.lhs, *st.rhs.array_refs())]
    out: dict[str, int] = {}
    for k, stmt in enumerate(stmts):
        lhs = stmt.lhs
        if any(ref.array == lhs.array and ref != lhs for ref in refs) \
                or sum(st.lhs.array == lhs.array for st in stmts) > 1:
            continue
        if not any(row[m] for row in model.arrays[lhs.array].h_rows
                   for m in inner):
            out[lhs.array] = k
    return out


def reads_per_statement(nest: LoopNest) -> list[int]:
    """Array reads the interpreter issues per execution of each statement."""
    return [len(list(stmt.rhs.array_refs())) for stmt in nest.statements]


# ---------------------------------------------------------------------------
# the block kernel: the paper's loop L'
# ---------------------------------------------------------------------------

class KernelTarget(NamedTuple):
    """How one memory shape spells a reference and a write."""

    #: emitted function name
    name: str
    #: memory arguments, between ``_points`` and ``_live, _rank_of``
    args: str
    #: lines run once per call, before any point
    preamble: list[str]
    #: ``(ref, affine)`` -> source of one array read; ``affine(coeffs,
    #: const)`` spells an integer affine of ``i0..`` (see :class:`_Hoister`)
    read_src: Callable[[ArrayRef, Callable], str]
    #: ``(k, stmt, value source, stamp source, affine)`` -> the lines
    #: storing and stamping it
    write_lines: Callable[[int, Assign, str, str, Callable], list[str]]


def _points_of(plan) -> list[tuple[int, ...]]:
    q = plan.psi.kernel_rows()
    return [(b.index, *[sum(map(mul, row, b.base_point)) for row in q])
            for b in plan.blocks]


_POINTS = Sidecar(_points_of)


def block_points(plan) -> list[tuple[int, ...]]:
    """``[(block index, Q·base_point...)]`` in block order (cached): the
    partition's own integer block key (:mod:`repro.core.partition`) is
    all a kernel is told about a block, and a processor's share of the
    forall loops is a slice of this list."""
    return _POINTS.get(plan)


def charge_blocks(plan, result, counted,
                  nreads: list[int]) -> tuple[int, int]:
    """Charge one kernel run over every block of ``plan`` to ``result``,
    a run on its store in place: ``counted`` is what the kernel returned
    for :func:`block_points`, in block order, or None without a live
    mask (every point ran every statement: the closed form).  A
    statement run ``n_k`` times is ``n_k`` writes and ``n_k`` times its
    reads.  Returns ``(iterations, statements)`` run."""
    points = result.store.layout.points
    if counted is None:
        executed, counts = points, [points] * len(nreads)
    else:
        executed = sum(row[1] for row in counted)
        counts = [sum(col) for col in zip(*(row[2] for row in counted))]
    result.executed_iterations += executed
    result.skipped_computations += points * len(nreads) - sum(counts)
    result.reads += sum(map(mul, counts, nreads))
    result.writes += sum(counts)
    return points, sum(counts)


def _rank_affine(rank_rect, nstmts: int) -> tuple[list[int], int]:
    """``rank * nstmts`` of an iteration of a rectangular space, as
    ``(per-index coefficients, constant)``."""
    los, strides = rank_rect
    return ([s * nstmts for s in strides],
            -nstmts * sum(map(mul, los, strides)))


class _Hoister:
    """Names the partial sums of integer affines of ``i0..``, each bound
    at the outermost loop level where it is constant: level 0 once per
    point, level ``j`` right under the ``j``-th inner ``for``; what moves
    with the innermost level is spelled inline.  Integer arithmetic
    only, so which slot is read, written or stamped -- and with what --
    cannot change."""

    def __init__(self, level_of: list[int], depth: int) -> None:
        self.level_of = level_of
        self.lines: list[list[str]] = [[] for _ in range(depth + 1)]
        self.names: dict[tuple[int, str], str] = {}

    def affine(self, coeffs, const=0, tail: int = 0) -> str:
        """Source, in the innermost body, of ``sum(coeffs[m] * i<m>) +
        const + tail``; a coefficient or the constant may be a name the
        target's preamble binds, and affines differing only in ``tail``
        share their partial sums."""
        acc, const = ([const], 0) if isinstance(const, str) else ([], const)
        for level, bound in enumerate(self.lines):
            terms = [term_src(c, f"i{m}") for m, c in enumerate(coeffs)
                     if c and self.level_of[m] == level]
            if level == len(self.lines) - 1:
                return sum_src(acc + terms, const + tail)
            if terms:
                src = sum_src(acc + terms, const)
                name = self.names.get((level, src))
                if name is None:
                    name = self.names[level, src] = f"_h{level}_{len(bound)}"
                    bound.append(f"{name} = {src}")
                acc, const = [name], 0


def emit_iteration_kernel(model, scalars: Mapping[str, float],
                          target: KernelTarget, rank_rect, has_live: bool,
                          psi) -> str:
    """Source of ``fn(_points, <target.args>, _live, _rank_of)``: the
    paper's loop L' (Sec. IV) for partitioning space ``psi``, over the
    nest of the plan's reference ``model``.

    Each of ``_points`` (:func:`block_points`) is one forall point; the
    extended statements recover the original indices from it at the
    outermost level where they are constant, the ``g`` inner loops run
    the Fourier-Motzkin bounds of
    :func:`~repro.transform.loopnest.transform_nest`, and every
    statement runs at every iteration, stamping writes ``rank * nstmts +
    k``.  Under a live mask the kernel counts, and returns per point
    ``(block index, executed iterations, per-statement counts)``.

    Without one, the element a statement ``k`` of
    :func:`promoted_writes` writes is *promoted* when the innermost
    loop has no ``% den`` guard: loaded into ``_pk`` before that loop,
    read and assigned as ``_pk`` in it, and stored and stamped once
    after it by ``target.write_lines`` with the last iteration's stamp
    (the loop variables keep their last values; a non-rectangular
    space ranks that iteration after the loop when every write is
    promoted).  An empty range loads and stores nothing.
    """
    from repro.transform.codegen import (
        _integerize, _linear_src, _lower_src, _upper_src)
    from repro.transform.loopnest import transform_nest

    nest = model.nest
    tnest = transform_nest(nest, psi)
    basis = tnest.basis
    k, g = basis.k, basis.g
    nstmts = len(nest.statements)
    names = [f"_u{j}" for j in range(k)] \
        + [f"i{z}" for z in basis.inner_positions]
    # the loop level at which each original index is known, and the
    # lines that make it known there
    level_of = [0] * nest.depth
    known: list[list[str]] = [[] for _ in range(g + 1)]
    guarded = False  # the innermost level skips points
    for j, z in enumerate(basis.inner_positions):
        level_of[z] = j + 1
    for m, form in sorted(tnest.extended.items()):
        coeffs, const, den = _integerize(form)
        level = level_of[m] = max(
            (j - k + 1 for j in range(k, k + g) if coeffs[j]), default=0)
        src = _linear_src(coeffs, const, names)
        # a point of the new coordinates without an integer preimage
        # (only when |det M| > 1) is no iteration
        known[level] += [f"i{m} = {src}"] if den == 1 else [
            f"_num = {src}", f"if _num % {den}: continue",
            f"i{m} = _num // {den}"]
        guarded = guarded or (den > 1 and level == g)
    for m in sorted(value_indices(nest)):
        known[level_of[m]].append(f"_f{m} = float(i{m})")

    promoted = {} if has_live or not g or guarded \
        else promoted_writes(model, scalars,
                             {m for m, lv in enumerate(level_of) if lv == g})
    hoist = _Hoister(level_of, g)
    rank = None if rank_rect is None else _rank_affine(rank_rect, nstmts)

    def read_src(ref: ArrayRef) -> str:
        if ref.array in promoted:
            return f"_p{promoted[ref.array]}"
        return target.read_src(ref, hoist.affine)

    # body: every iteration; load / store: once before / after the
    # innermost loop, for the promoted elements
    body: list[str] = []
    load: list[str] = []
    store: list[str] = []
    for s, stmt in enumerate(nest.statements):
        mine = promoted.get(stmt.lhs.array) == s
        if mine:
            load.append(f"_p{s} = "
                        + target.read_src(stmt.lhs, hoist.affine))
        val = value_src(stmt.rhs, nest.indices, scalars, read_src)
        stamp = sum_src(["_r"], s) if rank is None \
            else hoist.affine(*rank, tail=s)
        if mine:
            body.append(f"_p{s} = {val}")
            store += target.write_lines(s, stmt, f"_p{s}", stamp,
                                        hoist.affine)
            continue
        lines = target.write_lines(s, stmt, val, stamp, hoist.affine)
        if has_live:
            lines = [f"if ({s}, _it) in _live:"] + [
                "    " + ln for ln in lines + [f"_n{s} += 1", "_any = True"]]
        body += lines
    if has_live:
        body = ["_any = False"] + body + ["if _any:", "    _ex += 1"]
    if rank_rect is None:
        # the last iteration's rank is the one a promoted write needs
        (store if len(promoted) == nstmts else body).insert(
            0, f"_r = _rank_of(_it) * {nstmts}")
    for part in (body, store):
        if any("_it" in ln for ln in part):
            part.insert(0, "_it = " + tuple_src(
                [f"i{m}" for m in range(nest.depth)]))

    unpack = [""] * k
    for j, row in enumerate(basis.origin):
        unpack[row] = f"_u{j}"
    lines = [f"def {target.name}(_points, {target.args}, _live, _rank_of):"]
    lines += ["    " + ln for ln in target.preamble]
    if has_live:
        lines.append("    _out = []")
    pad = "        "
    lines += ["    for _pt in _points:",
              f"{pad}{tuple_src(['_bindex'] + unpack)} = _pt"]
    lines += [pad + ln for ln in known[0] + hoist.lines[0]]
    counts = [f"_n{s}" for s in range(nstmts)]
    if has_live:
        lines += [f"{pad}{c} = 0" for c in counts + ["_ex"]]
    ind = pad
    for j in range(g):
        bound = tnest.bounds[k + j]
        span = (f"range({_lower_src(bound, names)}, "
                f"{_upper_src(bound, names)} + 1)")
        if j == g - 1 and promoted:
            # an empty range reads and writes nothing; after a full one
            # the loop variables hold the last iteration's values
            lines += [f"{ind}_rg = {span}", f"{ind}if _rg:"]
            ind += "    "
            lines += [ind + ln for ln in load]
            span = "_rg"
        lines.append(f"{ind}for {names[k + j]} in {span}:")
        ind += "    "
        lines += [ind + ln for ln in known[j + 1] + hoist.lines[j + 1]]
    lines += [ind + ln for ln in body]
    lines += [ind[4:] + ln for ln in store]
    if has_live:
        lines += [f"{pad}_out.append((_bindex, _ex, {tuple_src(counts)}))",
                  "    return _out"]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# the in-process kernel cache
# ---------------------------------------------------------------------------

class KernelCache:
    """A bounded LRU: a daemon fed novel nests forever must not pin a
    nest and a code object per plan it ever saw."""

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self._entries: "OrderedDict[object, object]" = OrderedDict()
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key):
        with self._lock:
            value = self._entries.get(key)
            if value is not None:
                self._entries.move_to_end(key)
            return value

    def put(self, key, value) -> None:
        from repro.obs.metrics import current_registry

        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            evicted = len(self._entries) - self.capacity
            for _ in range(evicted):
                self._entries.popitem(last=False)
        if evicted > 0:
            current_registry().inc("engine.kernel_cache.evict", evicted)


#: Every in-process kernel (and per-nest table) of every tier; several
#: times the serve daemon's warm-session count, so hot plans stay put.
KERNEL_CACHE = KernelCache(128)
