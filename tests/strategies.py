"""Hypothesis strategies shared by the test suite.

:func:`loop_nests` draws arbitrary *uniformly generated* nests: a
random reference matrix ``H`` per array (coefficients in ``-2..2``, so
subscripts run backwards as often as forwards), a random offset per
reference (so array ranges rarely start at zero), random statement
structure.  Loops run from 1, depth 2-3, at most 3 iterations each.

:func:`expressions` / :func:`statements` draw what the golden model
evaluates, beyond what the planner accepts: all five node kinds,
subscripts with negative and rational coefficients (and, now and then,
a read inside a subscript), an index that shadows a scalar binding, and
divisors that are zero on some iterations.
"""

from dataclasses import replace

from hypothesis import strategies as st

from repro.core import Strategy
from repro.core.partition import all_data_partitions, iteration_partition
from repro.core.plan import PartitionPlan
from repro.lang import builder as b
from repro.lang.ast import ArrayRef, Assign, BinOp, Const, Name, UnaryOp

INDICES = ("i", "j", "k")

#: the four strategy / elimination combinations a nest is planned under
PLAN_KWARGS = [
    dict(strategy=Strategy.NONDUPLICATE),
    dict(strategy=Strategy.DUPLICATE),
    dict(strategy=Strategy.NONDUPLICATE, eliminate_redundant=True),
    dict(strategy=Strategy.DUPLICATE, eliminate_redundant=True),
]


def repartitioned(plan, psi):
    """``plan``'s nest cut along ``psi`` in place of its own ``Psi``, data
    blocks built from the accesses as the planner builds them."""
    blocks = iteration_partition(plan.model.space, psi)
    return PartitionPlan(
        nest=plan.nest, model=plan.model,
        breakdown=replace(plan.breakdown, psi=psi), blocks=blocks,
        data_blocks=all_data_partitions(plan.model, blocks))


@st.composite
def loop_nests(draw):
    depth = draw(st.integers(2, 3))
    indices = INDICES[:depth]
    bounds = [draw(st.integers(2, 3)) for _ in range(depth)]

    num_arrays = draw(st.integers(2, 3))
    names = ["A", "B", "C"][:num_arrays]
    # per-array reference shape: rank + H (shared by all refs of the array)
    shapes = {}
    for name in names:
        rank = draw(st.integers(1, 2))
        h = [[draw(st.integers(-2, 2)) for _ in range(depth)]
             for _ in range(rank)]
        shapes[name] = (rank, h)

    def random_ref(name):
        rank, h = shapes[name]
        subs = []
        for r in range(rank):
            terms = [(h[r][c], indices[c]) for c in range(depth) if h[r][c]]
            const = draw(st.integers(-2, 2))
            subs.append(b.lin(*terms, const=const))
        return b.ref(name, *subs)

    nstmts = draw(st.integers(1, 3))
    stmts = []
    for s in range(nstmts):
        lhs = random_ref(draw(st.sampled_from(names)))
        nreads = draw(st.integers(1, 2))
        rhs = None
        for _ in range(nreads):
            term = random_ref(draw(st.sampled_from(names)))
            rhs = term if rhs is None else BinOp("+", rhs, term)
        rhs = BinOp("*", rhs, Const(draw(st.integers(1, 3))))
        stmts.append(Assign(lhs=lhs, rhs=rhs))

    loops = [b.loop(indices[d], 1, bounds[d]) for d in range(depth)]
    return b.nest(*loops, body=stmts, name="RAND")


#: bindings for drawn expressions; the index ``i`` shadows the first
EXPR_SCALARS = {"i": 99.0, "D": 2.5, "K": -0.5}
EXPR_ARRAYS = ("A", "B")


@st.composite
def affine_subscripts(draw, indices):
    """``(a*i + b*j + c) / d``: negative and rational coefficients."""
    terms = [(a, x) for x in indices if (a := draw(st.integers(-2, 2)))]
    sub = b.lin(*terms, const=draw(st.integers(-2, 2)))
    d = draw(st.sampled_from([1, 1, 2, 3, -2]))
    return sub if d == 1 else BinOp("/", sub, Const(d))


def _refs(subscript):
    return st.builds(
        ArrayRef, st.sampled_from(EXPR_ARRAYS),
        st.lists(subscript, min_size=1, max_size=3).map(tuple))


def expressions(indices=INDICES[:2]):
    """Expression trees over ``indices``, ``EXPR_SCALARS`` and reads."""
    leaves = st.one_of(
        st.integers(-3, 3).map(Const),
        st.sampled_from(indices + ("D", "K")).map(Name),
        _refs(affine_subscripts(indices)),
        # zero somewhere on any grid that contains the diagonal and 2
        st.sampled_from([b.sub(indices[0], indices[-1]),
                         b.sub(indices[0], 2)]))
    return st.recursive(
        leaves,
        lambda sub: st.one_of(
            st.builds(UnaryOp, st.just("-"), sub),
            st.builds(BinOp, st.sampled_from("+-*/"), sub, sub),
            _refs(st.one_of(affine_subscripts(indices), sub))),
        max_leaves=8)


def statements(indices=INDICES[:2]):
    """``lhs = rhs`` with an affine left-hand side (no reads, no scalars)."""
    return st.builds(Assign, _refs(affine_subscripts(indices)),
                     expressions(indices))
