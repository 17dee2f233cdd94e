"""Differential test of the integer partition against a brute-force oracle.

``iteration_partition`` keys points by ``Q i`` and ``data_partition``
evaluates ``H i + c`` on integer rows; the oracle here shares neither:
it enumerates the drawn space with its own loops, groups points by
testing ``i - base in Psi`` with :meth:`Subspace.__contains__` (RREF
rank), and evaluates subscripts from the drawn coefficients directly.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import extract_references
from repro.core.partition import all_data_partitions, iteration_partition
from repro.lang import builder as b
from repro.lang.ast import BinOp
from repro.ratlinalg import RatVec, Subspace

INDICES = ("i", "j", "k")
coeff = st.integers(-3, 3)

#: loop shapes: (lower, upper) as functions of (outer index, bound); given
#: the outer index *name* they yield the AST bound, given its value the
#: oracle's numeric bound
SHAPES = {
    "rect": (lambda outer, n: 1, lambda outer, n: n),
    "lower-tri": (lambda outer, n: 1, lambda outer, n: outer),
    "upper-tri": (lambda outer, n: outer, lambda outer, n: n + 1),
}


@st.composite
def cases(draw):
    depth = draw(st.integers(1, 3))
    indices = INDICES[:depth]
    bounds = [draw(st.integers(1, 4)) for _ in range(depth)]
    shapes = ["rect"] + [draw(st.sampled_from(sorted(SHAPES)))
                         for _ in range(depth - 1)]

    loops = [
        b.loop(indices[d], *[fn(indices[d - 1], bounds[d])
                             for fn in SHAPES[shapes[d]]])
        for d in range(depth)]

    def points(prefix=()):
        d = len(prefix)
        if d == depth:
            yield prefix
            return
        lo_fn, hi_fn = SHAPES[shapes[d]]
        outer = prefix[-1] if prefix else None
        for v in range(lo_fn(outer, bounds[d]), hi_fn(outer, bounds[d]) + 1):
            yield from points(prefix + (v,))

    arrays = {}
    for name in ["A", "B"][:draw(st.integers(1, 2))]:
        rank = draw(st.integers(1, 2))
        arrays[name] = [[draw(coeff) for _ in range(depth)]
                        for _ in range(rank)]

    refs = []  # (array, stmt index, offset) of every drawn reference

    def random_ref(stmt):
        name = draw(st.sampled_from(sorted(arrays)))
        h = arrays[name]
        c = [draw(coeff) for _ in h]
        refs.append((name, stmt, c))
        return b.ref(name, *[
            b.lin(*[(row[m], indices[m]) for m in range(depth) if row[m]],
                  const=cr)
            for row, cr in zip(h, c)])

    stmts = []
    for s in range(draw(st.integers(1, 2))):
        lhs = random_ref(s)
        rhs = random_ref(s)
        if draw(st.booleans()):
            rhs = BinOp("+", rhs, random_ref(s))
        stmts.append(b.assign(lhs, rhs))

    psi_rows = [[draw(coeff) for _ in range(depth)]
                for _ in range(draw(st.integers(0, depth)))]
    pts = list(points())
    live = None
    if draw(st.booleans()):
        live = {(s, it) for s in range(len(stmts)) for it in pts
                if draw(st.booleans())}
    nest = b.nest(*loops, body=stmts, name="RAND")
    return nest, pts, arrays, refs, psi_rows, live


@given(cases())
@settings(max_examples=150, deadline=None)
def test_partition_equals_brute_force(case):
    nest, pts, arrays, refs, psi_rows, live = case
    model = extract_references(nest)
    psi = Subspace(nest.depth, psi_rows)

    blocks = iteration_partition(model.space, psi)
    data = all_data_partitions(model, blocks, live=live)

    # oracle blocks: lexicographic sweep, join the first block whose base
    # point differs from the point by a vector of Psi
    expected: list[list[tuple[int, ...]]] = []
    for p in pts:
        for blk in expected:
            if RatVec(p) - RatVec(blk[0]) in psi:
                blk.append(p)
                break
        else:
            expected.append([p])

    assert [b_.iterations for b_ in blocks] == [tuple(g) for g in expected]
    assert [b_.base_point for b_ in blocks] == [g[0] for g in expected]
    assert [b_.index for b_ in blocks] == list(range(len(expected)))
    assert set(data) == {arr for arr, _, _ in refs}
    for name in data:
        h = arrays[name]
        for j, g in enumerate(expected):
            want = {
                tuple(sum(a * x for a, x in zip(row, it)) + cr
                      for row, cr in zip(h, c))
                for arr, stmt, c in refs if arr == name
                for it in g
                if live is None or (stmt, it) in live
            }
            got = data[name][j]
            assert (got.array, got.block_index) == (name, j)
            assert got.elements == want
