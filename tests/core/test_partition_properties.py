"""Differential test of the integer partition against a brute-force oracle.

``iteration_partition`` keys points by ``Q i`` and ``data_partition``
evaluates ``H i + c`` on integer rows; the oracle here shares neither:
it enumerates the drawn space with its own loops, groups points by
testing ``i - base in Psi`` with :meth:`Subspace.__contains__` (RREF
rank), and evaluates subscripts from the drawn coefficients directly.

The planner's data blocks are images computed on first read, and the
flat layout is sized from integer columns; both are held to the
enumerating partition and layout they replaced
(:mod:`tests.partition_oracle`).
"""

from dataclasses import replace

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis import extract_references
from repro.core import Strategy, build_plan
from repro.core.partition import all_data_partitions, iteration_partition
from repro.core.plan import PartitionPlan
from repro.core.strategy import SpaceBreakdown
from repro.lang.ast import BinOp
from repro.ratlinalg import RatVec, Subspace
from repro.runtime.layout import PlanLayout
from tests import builder as b
from tests.partition_oracle import EnumeratedLayout, enumerated_data_partition
from tests.strategies import PLAN_KWARGS, loop_nests

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
    # a bound of 0 makes a rectangular level zero-trip (1 to 0), and
    # an upper-triangular one (outer to 1) zero-trip for outer > 1
    bounds = [draw(st.integers(0, 4)) for _ in range(depth)]
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


# -- image blocks against the enumerating oracles ---------------------------

def _tables(layout):
    """Every table a layout holds, its rows rendered per region."""
    return (layout.specs, layout.words, layout.written, layout.replicated,
            [(j, [(name, tuple(slots), list(slots.values()))
                  for name, slots in layout.slot_maps(j).items()])
             for j in layout.block_indices])


def assert_images_are_the_enumeration(plan, live):
    """``plan``'s image blocks hold what the enumerating partition holds
    under ``live``; its layout, and that of its twin with those sets as
    explicit blocks, are the enumerating layout's, row by row."""
    explicit = {name: enumerated_data_partition(
        plan.model, plan.blocks, name, live=live)
        for name in plan.data_blocks}
    twin = replace(plan, data_blocks=explicit)
    for name, dblocks in plan.data_blocks.items():
        assert all(db.access is not None for db in dblocks)
        assert [db.elements for db in dblocks] == \
            [db.elements for db in explicit[name]]
    oracle = EnumeratedLayout(twin)
    want = (oracle.specs, oracle.words, oracle.written, oracle.replicated,
            [(j, [tuple(region) for region in regions])
             for j, regions in oracle.rows])
    assert _tables(PlanLayout(plan)) == want
    assert _tables(PlanLayout(twin)) == want


@given(loop_nests(), st.sampled_from(PLAN_KWARGS))
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_planned_images_are_the_enumeration(nest, kwargs):
    plan = build_plan(nest, use_cache=False, **kwargs)
    assert_images_are_the_enumeration(plan, plan.live)


@given(cases())
@settings(max_examples=100, deadline=None)
def test_drawn_images_are_the_enumeration(case):
    """Triangular and zero-trip nests, arbitrary ``Psi`` and live masks
    (carried by the blocks: the plan has no redundancy analysis)."""
    nest, _, _, _, psi_rows, live = case
    model = extract_references(nest)
    psi = Subspace(nest.depth, psi_rows)
    blocks = iteration_partition(model.space, psi)
    breakdown = SpaceBreakdown(
        strategy=Strategy.DUPLICATE, eliminate_redundant=False,
        duplicated_arrays=frozenset(model.arrays), per_array={}, psi=psi)
    assert_images_are_the_enumeration(PartitionPlan(
        nest=nest, model=model, breakdown=breakdown, blocks=blocks,
        data_blocks=all_data_partitions(model, blocks, live=live)), live)
