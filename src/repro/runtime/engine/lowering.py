"""Kernel lowering: statements -> Python source, stated once.

The expression lowering every generated-kernel tier shares, the one
block-kernel emitter (:func:`emit_iteration_kernel`: the paper's loop L'
of Sec. IV, parameterised by a :class:`KernelTarget`), and the bounded
in-process kernel cache.  The bit-identity argument (float leaves, exact
constant folding, ``rank*nstmts + k`` stamps, the live guard, the
counter rule) and the table of memory targets live in DESIGN.md, "Kernel
lowering".

Anything that cannot be lowered (non-affine subscripts, reads inside
subscripts) raises :class:`KernelCompileError` and the caller falls
back down its tier chain, so lowering never changes observable
behavior -- only speed.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from operator import mul
from typing import Callable, Mapping, NamedTuple, Optional

from repro.lang.affine import NotAffineError, affine_of
from repro.lang.ast import (
    ArrayRef, Assign, BinOp, Expr, LoopNest, Name, UnaryOp,
)
from repro.runtime.layout import Sidecar
from repro.runtime.seq import build_statement, eval_expr


class KernelCompileError(ValueError):
    """The nest cannot be lowered; callers fall back to the interpreter."""


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
        return eval_expr(expr, {}, scalars, None)  # no reads to serve
    except ZeroDivisionError:
        return None  # defer the error to run time, like the interpreter


def value_src(expr: Expr, indices: tuple[str, ...],
              scalars: Mapping[str, float],
              read_src: Callable[[ArrayRef], str]) -> str:
    """Python source computing ``eval_expr(expr, ...)`` bit-for-bit."""
    folded = fold(expr, indices, scalars)
    if folded is not None:
        return f"({folded!r})"
    if isinstance(expr, Name):
        # an index used as a value; _f<k> = float(i<k>) is bound with i<k>
        return f"_f{indices.index(expr.ident)}"
    if isinstance(expr, UnaryOp):
        return f"(- {value_src(expr.operand, indices, scalars, read_src)})"
    if isinstance(expr, BinOp):
        lhs = value_src(expr.left, indices, scalars, read_src)
        rhs = value_src(expr.right, indices, scalars, read_src)
        return f"({lhs} {expr.op} {rhs})"
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


def coord_srcs(ref: ArrayRef, indices: tuple[str, ...]) -> list[str]:
    """Per-dimension integer index sources (affine stride/offset form).

    Non-integral affine subscripts mirror the interpreter's
    ``int(float-eval)`` truncation.
    """
    out: list[str] = []
    for sub in ref.subscripts:
        try:
            ae = affine_of(sub, indices)
        except NotAffineError as exc:
            raise KernelCompileError(
                f"subscript of {ref.array} is not affine: {exc}") from exc
        if ae.is_integral():
            out.append(sum_src([term_src(int(a), f"i{k}")
                                for k, a in enumerate(ae.coeffs) if a],
                               int(ae.const)))
        else:
            # rational coefficients: reproduce int(eval_expr(sub)) exactly
            out.append(f"int({value_src(sub, indices, {}, _no_reads)})")
    return out


def _no_reads(ref: ArrayRef) -> str:
    raise KernelCompileError(
        f"array read of {ref.array} inside a subscript")


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


def remote_guard(k: int, body: list[str]) -> list[str]:
    """``body`` with a memory miss (``KeyError``) routed to ``_remote``."""
    return (["try:"] + ["    " + ln for ln in body]
            + ["except KeyError:", f"    _remote({k}, _it)"])


def replay_statement(nest: LoopNest, scalars: Mapping[str, float], k: int,
                     it, load, store) -> None:
    """What ``_remote(k, it)`` does: statement ``k`` again, in the
    interpreter's evaluation order, through ``load``/``store`` callbacks
    that raise ``RemoteAccessError`` at the first element not held."""
    array, coords, rhs = build_statement(
        nest.statements[k], nest.indices, scalars, load)
    value = rhs(it)
    store(array, coords(it), value)
    raise AssertionError(
        "kernel raised KeyError but the interpreter slow path found "
        "every element local")  # pragma: no cover


def _points_of(plan) -> tuple[list, list[tuple[int, ...]]]:
    q = plan.psi.kernel_rows()
    return list(plan.blocks), [
        (b.index, *[sum(map(mul, row, b.base_point)) for row in q])
        for b in plan.blocks]


_POINTS = Sidecar(_points_of, valid=lambda plan, hit: hit[0] == plan.blocks)


def block_points(plan) -> list[tuple[int, ...]]:
    """``[(block index, Q·base_point...)]`` in block order (cached): the
    partition's own integer block key (:mod:`repro.core.partition`) is
    all a kernel is told about a block, and a processor's share of the
    forall loops is a slice of this list."""
    return _POINTS.get(plan)[1]


def block_tally(b, counted, nreads: list[int]) -> tuple[int, int, int, int]:
    """``(executed iterations, reads, writes, skipped computations)`` of
    block ``b``: from the kernel's ``(index, executed, per-statement
    counts)`` under a live mask; without one (``counted`` is None) every
    statement ran at every iteration."""
    n = len(b.iterations)
    if counted is None:
        return n, n * sum(nreads), n * len(nreads), 0
    _, executed, counts = counted
    writes = sum(counts)
    return (executed, sum(map(mul, counts, nreads)), writes,
            n * len(nreads) - writes)


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


def emit_iteration_kernel(nest: LoopNest, scalars: Mapping[str, float],
                          target: KernelTarget, rank_rect, has_live: bool,
                          psi) -> str:
    """Source of ``fn(_points, <target.args>, _live, _rank_of)``: the
    paper's loop L' (Sec. IV) for partitioning space ``psi``.

    Each of ``_points`` (:func:`block_points`) is one forall point; the
    extended statements recover the original indices from it at the
    outermost level where they are constant, the ``g`` inner loops run
    the Fourier-Motzkin bounds of
    :func:`~repro.transform.loopnest.transform_nest`, and every
    statement runs at every iteration, stamping writes ``rank * nstmts +
    k``.  Under a live mask the kernel counts, and returns per point
    ``(block index, executed iterations, per-statement counts)``.
    """
    from repro.transform.codegen import (
        _integerize, _linear_src, _lower_src, _upper_src)
    from repro.transform.loopnest import transform_nest

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
    for m in sorted(value_indices(nest)):
        known[level_of[m]].append(f"_f{m} = float(i{m})")

    hoist = _Hoister(level_of, g)
    rank = None if rank_rect is None else _rank_affine(rank_rect, nstmts)
    body: list[str] = []
    for s, stmt in enumerate(nest.statements):
        val = value_src(stmt.rhs, nest.indices, scalars,
                        lambda ref: target.read_src(ref, hoist.affine))
        stamp = sum_src(["_r"], s) if rank is None \
            else hoist.affine(*rank, tail=s)
        lines = target.write_lines(s, stmt, val, stamp, hoist.affine)
        if has_live:
            lines = [f"if ({s}, _it) in _live:"] + [
                "    " + ln for ln in lines + [f"_n{s} += 1", "_any = True"]]
        body += lines
    if has_live:
        body = ["_any = False"] + body + ["if _any:", "    _ex += 1"]
    if rank_rect is None:
        body.insert(0, f"_r = _rank_of(_it) * {nstmts}")
    if any("_it" in ln for ln in body):
        body.insert(0, "_it = " + tuple_src(
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
        lines.append(f"{ind}for {names[k + j]} in range("
                     f"{_lower_src(bound, names)}, "
                     f"{_upper_src(bound, names)} + 1):")
        ind += "    "
        lines += [ind + ln for ln in known[j + 1] + hoist.lines[j + 1]]
    lines += [ind + ln for ln in body]
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


def compile_kernel(src: str, name: str) -> Callable:
    namespace: dict = {}
    exec(compile(src, f"<repro-kernel:{name}>", "exec"), namespace)
    return namespace[name]


def iteration_kernel(nest: LoopNest, scalars: Mapping[str, float],
                     make_target: Callable[[LoopNest], KernelTarget],
                     rank_rect, has_live: bool, psi) -> Callable:
    """The compiled :func:`emit_iteration_kernel` function for
    ``make_target(nest)``, cached."""
    key = (make_target, nest, tuple(sorted(scalars.items())), has_live,
           rank_rect, psi)
    fn = KERNEL_CACHE.get(key)
    if fn is None:
        target = make_target(nest)
        fn = compile_kernel(
            emit_iteration_kernel(nest, scalars, target, rank_rect,
                                  has_live, psi), target.name)
        KERNEL_CACHE.put(key, fn)
    return fn
