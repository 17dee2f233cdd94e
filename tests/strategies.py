"""Hypothesis strategies shared by the test suite.

:func:`loop_nests` draws arbitrary *uniformly generated* nests: a
random reference matrix ``H`` per array (coefficients in ``-2..2``, so
subscripts run backwards as often as forwards), a random offset per
reference (so array ranges rarely start at zero), random statement
structure.  Loops run from 1, depth 2-3, at most 3 iterations each.
"""

from hypothesis import strategies as st

from repro.core import Strategy
from repro.lang import builder as b
from repro.lang.ast import Assign, BinOp, Const

INDICES = ("i", "j", "k")

#: the four strategy / elimination combinations a nest is planned under
PLAN_KWARGS = [
    dict(strategy=Strategy.NONDUPLICATE),
    dict(strategy=Strategy.DUPLICATE),
    dict(strategy=Strategy.NONDUPLICATE, eliminate_redundant=True),
    dict(strategy=Strategy.DUPLICATE, eliminate_redundant=True),
]


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
