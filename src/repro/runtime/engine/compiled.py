"""The compiled backend: statement-specialized Python kernels.

Each ``Assign`` statement is lowered *once* per (nest, scalar-bindings)
into generated Python source -- then the per-iteration work is a few
tuple constructions and dict/array indexing operations instead of a
recursive :func:`~repro.runtime.seq.eval_expr` walk:

- scalar parameters are bound at compile time and constant subtrees are
  folded (with exactly the interpreter's float arithmetic, so folding
  never changes a bit);
- affine subscripts are precomputed into stride/offset integer
  arithmetic (``2*i0 + -1``) instead of per-iteration AST evaluation;
  for sequential runs the array origin offsets are folded in too, so
  reads hit the raw backing grid directly;
- loop-index values used *as values* are materialized as floats once
  per iteration, preserving the interpreter's float-leaf semantics.

Anything the kernel compiler cannot lower (non-affine subscripts, reads
inside subscripts) raises :class:`KernelCompileError` and the engine
falls back to the interpreter for that nest, so the compiled tier never
changes observable behavior -- only speed.

For block execution the kernels index the block's
:class:`~repro.machine.memory.LocalMemory` value dict directly; a
``KeyError`` means the access fell outside the block's allocated data
blocks, and the slow path re-executes that one statement through
``LocalMemory.load/store`` to reproduce the interpreter's exact
bookkeeping and :class:`~repro.machine.memory.RemoteAccessError`.
"""

from __future__ import annotations

from typing import Callable, Mapping, Optional

from repro.lang.affine import NotAffineError, affine_of
from repro.lang.ast import ArrayRef, BinOp, Const, Expr, LoopNest, Name, UnaryOp
from repro.runtime.engine.base import Engine


class KernelCompileError(ValueError):
    """The nest cannot be lowered; callers fall back to the interpreter."""


# ---------------------------------------------------------------------------
# expression lowering
# ---------------------------------------------------------------------------

def _fold(expr: Expr, indices: tuple[str, ...],
          scalars: Mapping[str, float]) -> Optional[float]:
    """Evaluate a constant subtree exactly as ``eval_expr`` would, or None."""
    if isinstance(expr, Const):
        return float(expr.value)
    if isinstance(expr, Name):
        if expr.ident in indices:
            return None
        if expr.ident in scalars:
            return float(scalars[expr.ident])
        raise KeyError(
            f"unbound name {expr.ident!r}: not a loop index and no scalar "
            "binding")
    if isinstance(expr, UnaryOp):
        v = _fold(expr.operand, indices, scalars)
        return None if v is None else -v
    if isinstance(expr, BinOp):
        lv = _fold(expr.left, indices, scalars)
        rv = _fold(expr.right, indices, scalars)
        if lv is None or rv is None:
            return None
        try:
            if expr.op == "+":
                return lv + rv
            if expr.op == "-":
                return lv - rv
            if expr.op == "*":
                return lv * rv
            return lv / rv
        except ZeroDivisionError:
            return None  # defer the error to run time, like the interpreter
    return None


def _literal(value: float) -> str:
    return f"({value!r})"


def _value_src(expr: Expr, indices: tuple[str, ...],
               scalars: Mapping[str, float],
               read_src: Callable[[ArrayRef], str]) -> str:
    """Python source computing ``eval_expr(expr, ...)`` bit-for-bit."""
    folded = _fold(expr, indices, scalars)
    if folded is not None:
        return _literal(folded)
    if isinstance(expr, Name):
        # an index used as a value; _f<k> = float(i<k>) is bound per iteration
        return f"_f{indices.index(expr.ident)}"
    if isinstance(expr, UnaryOp):
        return f"(- {_value_src(expr.operand, indices, scalars, read_src)})"
    if isinstance(expr, BinOp):
        lhs = _value_src(expr.left, indices, scalars, read_src)
        rhs = _value_src(expr.right, indices, scalars, read_src)
        return f"({lhs} {expr.op} {rhs})"
    if isinstance(expr, ArrayRef):
        return read_src(expr)
    raise KernelCompileError(f"cannot lower {expr!r}")


def _coord_srcs(ref: ArrayRef, indices: tuple[str, ...],
                origin: Optional[tuple[int, ...]] = None) -> list[str]:
    """Per-dimension integer index sources (affine stride/offset form).

    ``origin`` folds a backing-grid origin (``DataSpace.lo``) into the
    constant term.  Non-integral affine subscripts mirror the
    interpreter's ``int(float-eval)`` truncation.
    """
    out: list[str] = []
    for d, sub in enumerate(ref.subscripts):
        shift = origin[d] if origin is not None else 0
        try:
            ae = affine_of(sub, indices)
        except NotAffineError as exc:
            raise KernelCompileError(
                f"subscript of {ref.array} is not affine: {exc}") from exc
        if ae.is_integral():
            terms = []
            for k, a in enumerate(ae.coeffs):
                a = int(a)
                if a == 0:
                    continue
                terms.append(f"i{k}" if a == 1 else f"{a}*i{k}")
            const = int(ae.const) - shift
            if const or not terms:
                terms.append(str(const))
            out.append(" + ".join(terms))
        else:
            # rational coefficients: reproduce int(eval_expr(sub)) exactly
            src = _value_src(sub, indices, {}, _no_reads)
            out.append(f"int({src}) - {shift}" if shift else f"int({src})")
    return out


def _no_reads(ref: ArrayRef) -> str:
    raise KernelCompileError(
        f"array read of {ref.array} inside a subscript")


def _tuple_src(parts: list[str]) -> str:
    inner = ", ".join(parts)
    return f"({inner},)" if len(parts) == 1 else f"({inner})"


def _iteration_prelude(depth: int, used_as_value: set[int]) -> list[str]:
    unpack = ", ".join(f"i{k}" for k in range(depth))
    lines = [f"{unpack}{',' if depth == 1 else ''} = _it"]
    lines += [f"_f{k} = float(i{k})" for k in sorted(used_as_value)]
    return lines


def _value_indices(nest: LoopNest) -> set[int]:
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


def _compile(src: str, name: str, namespace: dict) -> Callable:
    code = compile(src, f"<repro-kernel:{name}>", "exec")
    exec(code, namespace)
    return namespace[name]


#: (kind, nest, scalars, ...) -> compiled function
_KERNEL_CACHE: dict[tuple, Callable] = {}


# ---------------------------------------------------------------------------
# sequential whole-nest kernel
# ---------------------------------------------------------------------------

def compile_nest_kernel(nest: LoopNest, scalars: Mapping[str, float],
                        origins: Mapping[str, tuple[int, ...]]) -> Callable:
    """``fn(points, grids)`` executing the whole nest over raw grids.

    ``grids`` maps array name -> backing grid (``DataSpace.data``);
    origins are folded into the generated index arithmetic.
    """
    names = nest.array_names()
    key = ("nest", nest, tuple(sorted(scalars.items())),
           tuple((n, tuple(origins[n])) for n in names))
    fn = _KERNEL_CACHE.get(key)
    if fn is not None:
        return fn
    indices = nest.indices
    gvar = {n: f"_g{j}" for j, n in enumerate(names)}

    def read_src(ref: ArrayRef) -> str:
        coords = _coord_srcs(ref, indices, origin=origins[ref.array])
        return f"{gvar[ref.array]}[{_tuple_src(coords)}]"

    body: list[str] = []
    for stmt in nest.statements:
        val = _value_src(stmt.rhs, indices, scalars, read_src)
        lhs = _coord_srcs(stmt.lhs, indices, origin=origins[stmt.lhs.array])
        body.append(
            f"{gvar[stmt.lhs.array]}[{_tuple_src(lhs)}] = float({val})")

    lines = ["def _nest_kernel(_points, _grids):"]
    for n in names:
        lines.append(f"    {gvar[n]} = _grids[{n!r}]")
    lines.append("    for _it in _points:")
    for pl in _iteration_prelude(nest.depth, _value_indices(nest)):
        lines.append(f"        {pl}")
    for b in body:
        lines.append(f"        {b}")
    fn = _compile("\n".join(lines), "_nest_kernel", {})
    _KERNEL_CACHE[key] = fn
    return fn


# ---------------------------------------------------------------------------
# per-block kernel
# ---------------------------------------------------------------------------

def compile_block_kernel(nest: LoopNest, scalars: Mapping[str, float],
                         has_live: bool,
                         rank_rect: Optional[tuple[tuple[int, ...],
                                                   tuple[int, ...]]]) -> Callable:
    """``fn(bindex, iterations, values, stamps, live, rank_of, remote)``.

    Executes one iteration block over its LocalMemory value dicts,
    recording write stamps inline (closed-form lexicographic rank when
    the space is rectangular).  Returns ``(executed_iterations,
    per-statement execution counts)``.
    """
    key = ("block", nest, tuple(sorted(scalars.items())), has_live, rank_rect)
    fn = _KERNEL_CACHE.get(key)
    if fn is not None:
        return fn
    indices = nest.indices
    nstmts = len(nest.statements)
    names = nest.array_names()
    vvar = {n: f"_v{j}" for j, n in enumerate(names)}

    def read_src(ref: ArrayRef) -> str:
        coords = _coord_srcs(ref, indices)
        return f"{vvar[ref.array]}[{_tuple_src(coords)}]"

    if rank_rect is not None:
        los, strides = rank_rect
        terms = [f"(i{k} - {lo}) * {s}" if s != 1 else f"(i{k} - {lo})"
                 for k, (lo, s) in enumerate(zip(los, strides)) if s != 0]
        rank_src = " + ".join(terms) or "0"
    else:
        rank_src = "_rank_of(_it)"

    lines = ["def _block_kernel(_bindex, _iters, _values, _stamps, _live, "
             "_rank_of, _remote):"]
    for n in names:
        lines.append(f"    {vvar[n]} = _values[{n!r}]")
    for k in range(nstmts):
        lines.append(f"    _n{k} = 0")
    lines.append("    _ex = 0")
    lines.append("    for _it in _iters:")
    ind = "        "
    for pl in _iteration_prelude(nest.depth, _value_indices(nest)):
        lines.append(ind + pl)
    lines.append(ind + f"_r = ({rank_src}) * {nstmts}")
    if has_live:
        lines.append(ind + "_any = False")
    for k, stmt in enumerate(nest.statements):
        sind = ind
        if has_live:
            lines.append(ind + f"if ({k}, _it) in _live:")
            sind = ind + "    "
        val = _value_src(stmt.rhs, indices, scalars, read_src)
        lhs = _coord_srcs(stmt.lhs, indices)
        wvar = vvar[stmt.lhs.array]
        lines += [
            sind + "try:",
            sind + f"    _val = float({val})",
            sind + f"    _k = {_tuple_src(lhs)}",
            sind + f"    if _k not in {wvar}:",
            sind + "        raise KeyError(_k)",
            sind + f"    {wvar}[_k] = _val",
            sind + f"    _stamps[(_bindex, {stmt.lhs.array!r}, _k)] = "
                   f"_r + {k}",
            sind + "except KeyError:",
            sind + f"    _remote({k}, _it)",
            sind + f"_n{k} += 1",
        ]
        if has_live:
            lines.append(sind + "_any = True")
    if has_live:
        lines += [ind + "if _any:", ind + "    _ex += 1"]
    else:
        lines.append(ind + "_ex += 1")
    counts = ", ".join(f"_n{k}" for k in range(nstmts))
    lines.append(f"    return _ex, ({counts},)")
    fn = _compile("\n".join(lines), "_block_kernel", {})
    _KERNEL_CACHE[key] = fn
    return fn


def _reads_per_statement(nest: LoopNest) -> list[int]:
    """Array reads the interpreter issues per execution of each statement."""
    return [len(list(stmt.rhs.array_refs())) for stmt in nest.statements]


# ---------------------------------------------------------------------------
# the engine
# ---------------------------------------------------------------------------

class CompiledEngine(Engine):
    """Statement-specialized kernels; falls back to interp when a nest
    cannot be lowered or when ``strict=False`` bookkeeping is requested."""

    name = "compiled"
    fallback = "interp"

    def run_nest(self, nest, arrays, scalars, space) -> None:
        try:
            kernel = compile_nest_kernel(
                nest, scalars, {n: arrays[n].lo for n in nest.array_names()})
        except KernelCompileError:
            self.delegate().run_nest(nest, arrays, scalars, space)
            return
        grids = {n: arrays[n].data for n in nest.array_names()}
        kernel(space.points(), grids)

    def run_blocks(self, plan, memories, result, initial, scalars,
                   strict: bool = True) -> None:
        from repro.runtime.seq import eval_expr, subscript_coords

        nest = plan.nest
        space = plan.model.space
        live = plan.live
        try:
            kernel = compile_block_kernel(nest, scalars, live is not None,
                                          space.rank_strides())
        except KernelCompileError:
            self.delegate().run_blocks(plan, memories, result, initial,
                                       scalars, strict=strict)
            return
        if not strict:
            # tolerant remote-access bookkeeping needs element-wise
            # LocalMemory traffic; the interpreter is the only tier that
            # models it faithfully
            self.delegate().run_blocks(plan, memories, result, initial,
                                       scalars, strict=strict)
            return
        from repro.obs.trace import current_tracer

        nreads = _reads_per_statement(nest)
        stamps = result.write_stamps
        tracer = current_tracer()
        for b in plan.blocks:
            mem = memories[b.index]

            def remote(k, it, mem=mem):
                # slow path: one statement through LocalMemory, which
                # re-counts its reads and raises RemoteAccessError
                stmt = nest.statements[k]
                env = dict(zip(nest.indices, it))
                value = eval_expr(stmt.rhs, env, scalars,
                                  lambda a, c: mem.load(a, c))
                mem.store(stmt.lhs.array, subscript_coords(stmt.lhs, env),
                          value)
                raise AssertionError(
                    "compiled kernel raised KeyError but the interpreter "
                    "slow path found every element local")  # pragma: no cover

            with tracer.span("engine.block", category="engine",
                             backend=self.name, block=b.index,
                             iterations=len(b.iterations)) as sp:
                remote_before = mem.remote_attempts
                executed, counts = kernel(b.index, b.iterations, mem.values,
                                          stamps, live, space.rank_of, remote)
                result.executed_iterations += executed
                for k, n in enumerate(counts):
                    mem.writes += n
                    mem.reads += n * nreads[k]
                    if live is not None:
                        result.skipped_computations += len(b.iterations) - n
                sp.set(statements=sum(counts),
                       remote_accesses=mem.remote_attempts - remote_before)
