"""The closure-built evaluator against the definition it replaced.

``reference_eval`` / ``reference_statement`` / ``reference_run`` below
are the golden model as it stood before statements were built into
closures: a recursive walk of the AST per evaluation, an environment
dict per iteration, one ``DataSpace.__getitem__`` / ``__setitem__`` per
element.  They are kept here, unshared, as what the builder is
compared with: the same bits (``-0.0`` and NaN included), the same
*sequence* of reads (it decides which access raises first), the same
exception, the same writes left behind by a run that raises.
"""

import struct
from functools import partial

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis import extract_references
from repro.core import Strategy, build_plan
from repro.lang import catalog, parse
from repro.lang.ast import ArrayRef, BinOp, Const, Name, UnaryOp
from repro.lang.space import IterationSpace
from repro.machine.memory import RemoteAccessError
from repro.obs.audit import inject_violation
from repro.obs.trace import Tracer, use_tracer
from repro.runtime import make_arrays, run_parallel, run_sequential
from repro.runtime.arrays import DataSpace
from repro.runtime.seq import (
    UnboundScalarError, build_expr, build_statement, eval_expr,
)
from tests.strategies import (
    EXPR_SCALARS, INDICES, expressions, loop_nests, statements,
)

IDX = INDICES[:2]
#: every drawn divisor (``i - j``, ``i - 2``) is zero somewhere on it
GRID = [(i, j) for i in range(4) for j in range(4)]


# -- the definition, as it was ------------------------------------------------

def reference_eval(expr, env, scalars, read):
    if isinstance(expr, Const):
        return float(expr.value)
    if isinstance(expr, Name):
        if expr.ident in env:
            return float(env[expr.ident])
        if expr.ident in scalars:
            return float(scalars[expr.ident])
        raise KeyError(f"unbound name {expr.ident!r}: not a loop index "
                       f"and no scalar binding")
    if isinstance(expr, UnaryOp):
        return -reference_eval(expr.operand, env, scalars, read)
    if isinstance(expr, BinOp):
        lv = reference_eval(expr.left, env, scalars, read)
        rv = reference_eval(expr.right, env, scalars, read)
        if expr.op == "+":
            return lv + rv
        if expr.op == "-":
            return lv - rv
        if expr.op == "*":
            return lv * rv
        return lv / rv
    if isinstance(expr, ArrayRef):
        coords = tuple(int(reference_eval(s, env, scalars, read))
                       for s in expr.subscripts)
        return read(expr.array, coords)
    raise TypeError(f"cannot evaluate {expr!r}")


def reference_statement(stmt, env, scalars, read, write):
    value = reference_eval(stmt.rhs, env, scalars, read)
    coords = tuple(int(reference_eval(s, env, {}, None))
                   for s in stmt.lhs.subscripts)
    write(stmt.lhs.array, coords, value)


def reference_iterate(space):
    point = [0] * space.depth

    def rec(k):
        if k == space.depth:
            yield tuple(point)
            return
        lo, hi = space.bounds_at(point[:k], k)
        for v in range(lo, hi + 1):
            point[k] = v
            yield from rec(k + 1)

    yield from rec(0)


def reference_run(nest, arrays, scalars):
    def read(array, coords):
        return arrays[array][coords]

    def write(array, coords, value):
        arrays[array][coords] = value

    for it in reference_iterate(IterationSpace(nest)):
        env = dict(zip(nest.indices, it))
        for stmt in nest.statements:
            reference_statement(stmt, env, scalars, read, write)


# -- observation --------------------------------------------------------------

#: what a read returns, by a hash of where it reads; slot 0 raises
VALUES = [None, 0.0, -0.0, float("nan"), float("inf"), 1.5, -2.25, 1e308,
          3.0, 0.1, 7.0]


def logging_read(log):
    def read(array, coords):
        log.append(("read", array, coords))
        value = VALUES[(sum((k + 2) * c for k, c in enumerate(coords))
                        + ord(array)) % len(VALUES)]
        if value is None:
            raise RemoteAccessError(3, array, coords, is_write=False)
        return value
    return read


def observe(run):
    """``run(read, write)`` as everything a caller can see of it: the
    accesses in order, then the value's bits or the exception."""
    log = []

    def write(array, coords, value):
        log.append(("write", array, coords, struct.pack("<d", value)))

    try:
        value = run(logging_read(log), write)
    except Exception as exc:  # noqa: BLE001 - compared, never swallowed
        return log, type(exc), str(exc)
    return log, value if value is None else struct.pack("<d", value)


def bits(arrays):
    return {name: struct.pack(f"<{len(ds.values)}d", *ds.values)
            for name, ds in arrays.items()}


# -- (a) the builder is the definition ----------------------------------------

@settings(max_examples=200, deadline=None)
@given(expressions(IDX))
def test_built_expression_equals_the_tree_walk(expr):
    reader = []   # the observation in progress; one build serves them all

    def read(array, coords):
        return reader[0](array, coords)

    built = build_expr(expr, IDX, EXPR_SCALARS, read)

    def run_built(it, observed_read, _):
        reader[:] = [observed_read]
        return built(it)

    for it in GRID:
        env = dict(zip(IDX, it))
        want = observe(lambda read, _: reference_eval(
            expr, env, EXPR_SCALARS, read))
        assert observe(partial(run_built, it)) == want
        assert observe(lambda read, _: eval_expr(
            expr, env, EXPR_SCALARS, read)) == want


@settings(max_examples=200, deadline=None)
@given(statements(IDX))
def test_built_statement_equals_the_tree_walk(stmt):
    def built(it, read, write):
        array, coords, rhs = build_statement(stmt, IDX, EXPR_SCALARS, read)
        value = rhs(it)
        write(array, coords(it), value)

    for it in GRID:
        env = dict(zip(IDX, it))
        assert observe(partial(built, it)) == observe(partial(
            reference_statement, stmt, env, EXPR_SCALARS))


def test_an_index_shadows_a_scalar_of_the_same_name():
    assert EXPR_SCALARS["i"] == 99.0
    assert eval_expr(Name("i"), {"i": 3}, EXPR_SCALARS, None) == 3.0
    assert build_expr(Name("i"), ("j", "i"), EXPR_SCALARS, None)((5, 7)) \
        == 7.0


# -- (b) the in-place run equals element-at-a-time ----------------------------

def _both_runs(nest, scalars):
    model = extract_references(nest)
    staged, stepped = make_arrays(model), make_arrays(model)
    run_sequential(nest, staged, scalars=scalars)
    reference_run(nest, stepped, scalars)
    return staged, stepped


@pytest.mark.parametrize("make", [catalog.l1, catalog.triangular,
                                  catalog.l3_sub, catalog.l5],
                         ids=lambda fn: fn.__name__)
def test_catalog_run_equals_element_at_a_time(make, backing, scalars):
    staged, stepped = _both_runs(make(), scalars)
    assert bits(staged) == bits(stepped)
    if make is catalog.l1:   # the array that does not start at zero
        assert (staged["B"].lo, staged["B"].hi) == ((1, 2), (4, 5))


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(loop_nests())
def test_drawn_run_equals_element_at_a_time(backing, nest):
    staged, stepped = _both_runs(nest, {})
    assert bits(staged) == bits(stepped)


@settings(max_examples=60, deadline=None)
@given(st.one_of(loop_nests(), st.sampled_from(
    [catalog.triangular(), catalog.triangular(1), catalog.l5(2),
     parse("for i = 3 to 2 { for j = 1 to 2 { A[i, j] = 1; } }"),
     parse("for i = 1 to 3 { for j = i to 2 { for k = j to i "
           "{ A[i, j, k] = 1; } } }")])))
def test_iterate_enumerates_in_the_same_order(nest):
    space = IterationSpace(nest)
    assert list(space.iterate()) == list(reference_iterate(space))


# -- (c) a run that raises leaves the writes made before it -------------------

#: source, shortened initial arrays, the error, how many elements of A
#: (statement S1) and of C (S2) were written before it
RAISING = {
    "zero-division": (
        "for i = 1 to 6 { S1: A[i] = B[i] + 1; S2: C[i] = A[i] / (i - 4); }",
        {}, ZeroDivisionError, "float division by zero", 4, 3),
    "read-outside-initial": (
        "for i = 1 to 6 { S1: A[i] = B[i] + 1; S2: C[i] = A[i] * 2; }",
        {"B": 3}, IndexError, "B[4] outside [(1,)..(3,)]", 3, 3),
    "write-outside-initial": (
        "for i = 1 to 6 { S1: A[i] = B[i] + 1; S2: C[i] = A[i] * 2; }",
        {"C": 3}, IndexError, "C[4] outside [(1,)..(3,)]", 4, 3),
}


@pytest.mark.parametrize("case", sorted(RAISING))
def test_a_raising_run_leaves_exactly_the_earlier_writes(case, backing):
    source, short, error, message, wrote_a, wrote_c = RAISING[case]
    nest = parse(source)

    def arrays():
        made = {name: DataSpace(name, (1,), (short.get(name, 6),)).fill_with(
            lambda c, name=name: ord(name) + c[0] * 0.5) for name in "ABC"}
        # not referenced by the nest: must not even be looked at
        made["Z"] = DataSpace("Z", (0,), (1,))
        made["Z"].values = None
        return made

    staged, stepped, fresh = arrays(), arrays(), arrays()
    with pytest.raises(error) as got:
        run_sequential(nest, staged)
    with pytest.raises(error) as want:
        reference_run(nest, stepped, {})
    assert str(got.value) == str(want.value) == message
    for made in (staged, stepped, fresh):
        assert made.pop("Z").values is None
    assert bits(staged) == bits(stepped)
    for name, wrote in (("A", wrote_a), ("C", wrote_c)):
        changed = [c for c, _, _ in staged[name].differences(fresh[name])]
        assert changed == [(i,) for i in range(1, wrote + 1)]
    assert bits(staged)["B"] == bits(fresh)["B"]


# -- (d) an unbound scalar is refused before anything runs --------------------

def test_unbound_scalar_raises_before_any_write(backing):
    # the tree walk wrote A[1] and only then met ``alpha``
    nest = parse("for i = 1 to 4 "
                 "{ S1: A[i] = B[i] + 1; S2: C[i] = A[i] * alpha; }")
    arrays = make_arrays(extract_references(nest))
    before = bits(arrays)
    with pytest.raises(UnboundScalarError, match="unbound name") as exc:
        run_sequential(nest, arrays)
    assert isinstance(exc.value, KeyError)
    assert str(exc.value) == ("unbound name 'alpha': not a loop index and "
                              "no scalar binding")
    assert bits(arrays) == before
    with pytest.raises(UnboundScalarError):
        run_parallel(build_plan(nest), backend="interp")
    run_sequential(nest, arrays, scalars={"alpha": 2.0})
    assert bits(arrays) != before


# -- (e) the first remote access of a sabotaged plan --------------------------

@pytest.mark.parametrize("make, kwargs, first", [
    (catalog.l1, {},
     (5, "A", (2, 1), False, "'PE5: remote access to A[2, 1]'")),
    (lambda: catalog.matmul(4), {},
     (1, "C", (0, 0), False, "'PE1: remote access to C[0, 0]'")),
    (catalog.l2, dict(strategy=Strategy.DUPLICATE),
     (1, "A", (2, 2), True, "'PE1: remote access to A[2, 2]'")),
], ids=["L1", "MATMUL4", "L2-duplicate-write"])
def test_interp_first_remote_access_is_pinned(make, kwargs, first):
    bad = inject_violation(build_plan(make(), **kwargs))
    with pytest.raises(RemoteAccessError) as exc:
        run_parallel(bad, backend="interp")
    e = exc.value
    assert (e.pid, e.array, e.coords, e.is_write, str(e)) == first
    # strict=False counts the same accesses and runs to the end
    tolerant = run_parallel(bad, backend="interp", strict=False)
    assert tolerant.remote_accesses > 0


# -- the trace says how much work the golden run did --------------------------

@pytest.mark.parametrize("make, points", [(catalog.l1, 16),
                                          (catalog.triangular, 15)])
def test_run_nest_span_carries_the_work_done(make, points):
    nest = make()
    tracer = Tracer()
    with use_tracer(tracer):
        run_sequential(nest, make_arrays(extract_references(nest)))
    (span,) = [s for s in tracer.spans if s.name == "engine.run_nest"]
    assert span.attributes["iterations"] == points
    assert span.attributes["statements_executed"] == \
        points * len(nest.statements)
    assert span.attributes["backend"] == "interp"
