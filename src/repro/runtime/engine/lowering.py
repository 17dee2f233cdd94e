"""Kernel lowering: statements -> Python source, stated once.

The expression lowering every generated-kernel tier shares, the one
per-iteration block-kernel emitter (:func:`emit_iteration_kernel`,
parameterised by a :class:`KernelTarget`), and the bounded in-process
kernel cache.  The bit-identity argument (float leaves, exact constant
folding, ``rank*nstmts + k`` stamps, the live guard, the counter rule)
and the table of memory targets live in DESIGN.md, "Kernel lowering".

Anything that cannot be lowered (non-affine subscripts, reads inside
subscripts) raises :class:`KernelCompileError` and the caller falls
back down its tier chain, so lowering never changes observable
behavior -- only speed.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Callable, Mapping, NamedTuple, Optional

from repro.lang.affine import NotAffineError, affine_of
from repro.lang.ast import (
    ArrayRef, Assign, BinOp, Expr, LoopNest, Name, UnaryOp,
)
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
        # an index used as a value; _f<k> = float(i<k>) is bound per iteration
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


def iteration_prelude(depth: int, used_as_value: set[int]) -> list[str]:
    unpack = ", ".join(f"i{k}" for k in range(depth))
    lines = [f"{unpack}{',' if depth == 1 else ''} = _it"]
    lines += [f"_f{k} = float(i{k})" for k in sorted(used_as_value)]
    return lines


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
# the per-iteration block kernel
# ---------------------------------------------------------------------------

class KernelTarget(NamedTuple):
    """How one memory shape spells a reference and a write."""

    #: emitted function name
    name: str
    #: memory arguments, between the block and ``_live, _rank_of``
    args: str
    #: lines run once per call, before any iteration
    preamble: list[str]
    #: source of one array read
    read_src: Callable[[ArrayRef], str]
    #: ``(k, stmt, value source)`` -> the lines storing and stamping it
    write_lines: Callable[[int, Assign, str], list[str]]
    #: take ``_blocks = [(index, iterations), ...]`` and return per-block
    #: ``(index, executed, counts)`` instead of running a single block
    per_block: bool = False


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


def _rank_src(rank_rect) -> str:
    """The iteration's sequential rank: closed form over a rectangular
    space, else the space's ``rank_of``."""
    if rank_rect is None:
        return "_rank_of(_it)"
    los, strides = rank_rect
    terms = [f"(i{k} - {lo}) * {s}" if s != 1 else f"(i{k} - {lo})"
             for k, (lo, s) in enumerate(zip(los, strides)) if s != 0]
    return f"({' + '.join(terms) or '0'})"


def emit_iteration_kernel(nest: LoopNest, scalars: Mapping[str, float],
                          target: KernelTarget, rank_rect,
                          has_live: bool) -> str:
    """Source of ``fn(<block>, <target.args>, _live, _rank_of)``.

    Runs every recorded iteration of a block (``_bindex, _iters``; or of
    each of ``_blocks``) through every statement, stamping writes
    ``rank * nstmts + k`` and counting executions.  Returns
    ``(executed_iterations, per-statement counts)``, per block when the
    target is ``per_block``.
    """
    indices = nest.indices
    nstmts = len(nest.statements)
    head = "_blocks" if target.per_block else "_bindex, _iters"
    lines = [f"def {target.name}({head}, {target.args}, _live, _rank_of):"]
    lines += ["    " + ln for ln in target.preamble]
    base = "    "
    if target.per_block:
        lines += ["    _out = []", "    for _blk in _blocks:",
                  "        _bindex, _iters = _blk"]
        base = "        "
    lines += [f"{base}_n{k} = 0" for k in range(nstmts)]
    lines += [base + "_ex = 0", base + "for _it in _iters:"]
    ind = base + "    "
    lines += [ind + ln
              for ln in iteration_prelude(nest.depth, value_indices(nest))]
    lines.append(f"{ind}_r = {_rank_src(rank_rect)} * {nstmts}")
    if has_live:
        lines.append(ind + "_any = False")
    for k, stmt in enumerate(nest.statements):
        sind = ind
        if has_live:
            lines.append(f"{ind}if ({k}, _it) in _live:")
            sind = ind + "    "
        val = value_src(stmt.rhs, indices, scalars, target.read_src)
        lines += [sind + ln for ln in target.write_lines(k, stmt, val)]
        lines.append(f"{sind}_n{k} += 1")
        if has_live:
            lines.append(sind + "_any = True")
    if has_live:
        lines += [ind + "if _any:", ind + "    _ex += 1"]
    else:
        lines.append(ind + "_ex += 1")
    counts = ", ".join(f"_n{k}" for k in range(nstmts))
    if target.per_block:
        lines += [f"        _out.append((_bindex, _ex, ({counts},)))",
                  "    return _out"]
    else:
        lines.append(f"    return _ex, ({counts},)")
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
                     rank_rect, has_live: bool) -> Callable:
    """The compiled :func:`emit_iteration_kernel` function for
    ``make_target(nest)``, cached."""
    key = (make_target, nest, tuple(sorted(scalars.items())), has_live,
           rank_rect)
    fn = KERNEL_CACHE.get(key)
    if fn is None:
        target = make_target(nest)
        fn = compile_kernel(
            emit_iteration_kernel(nest, scalars, target, rank_rect,
                                  has_live), target.name)
        KERNEL_CACHE.put(key, fn)
    return fn
