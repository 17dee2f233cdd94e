"""Property-based tests of the exact linear-algebra substrate."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ratlinalg import (
    FMSystem,
    IntLattice,
    RatMat,
    RatVec,
    Subspace,
    integer_kernel_basis,
    nullspace,
    rank,
    rref,
    smith_normal_form,
    solve_diophantine,
    solve_particular,
)
from repro.ratlinalg.fm import enumerate_integer_points

small_int = st.integers(min_value=-6, max_value=6)


def matrices(max_rows=3, max_cols=3):
    return st.integers(1, max_rows).flatmap(
        lambda r: st.integers(1, max_cols).flatmap(
            lambda c: st.lists(
                st.lists(small_int, min_size=c, max_size=c),
                min_size=r, max_size=r,
            )
        )
    ).map(RatMat)


def vectors(n):
    return st.lists(small_int, min_size=n, max_size=n).map(RatVec)


@given(matrices())
@settings(max_examples=60, deadline=None)
def test_rref_idempotent_and_rank_consistent(m):
    r, pivots = rref(m)
    r2, pivots2 = rref(r)
    assert r2 == r and pivots2 == pivots
    assert rank(m) == len(pivots)


@given(matrices())
@settings(max_examples=60, deadline=None)
def test_nullspace_vectors_annihilate(m):
    basis = nullspace(m)
    assert len(basis) == m.ncols - rank(m)
    for v in basis:
        assert (m @ v).is_zero()
        assert v.is_integral()


@given(matrices())
@settings(max_examples=50, deadline=None)
def test_smith_decomposition(m):
    u, d, v = smith_normal_form(m)
    assert u @ m @ v == d
    assert abs(u.det()) == 1 and abs(v.det()) == 1
    diag = [d[i, i] for i in range(min(d.nrows, d.ncols))]
    for a, b in zip(diag, diag[1:]):
        assert (a == 0 and b == 0) or (a != 0 and b % a == 0)


@given(matrices(max_rows=3, max_cols=3).flatmap(
    lambda m: st.tuples(st.just(m), vectors(m.ncols))))
@settings(max_examples=60, deadline=None)
def test_diophantine_consistent_with_construction(mx):
    """A t computed from a random integer t must be dioph-solvable back."""
    m, t = mx
    r = m @ t
    sol = solve_diophantine(m, r)
    assert sol is not None
    assert m @ sol.particular == r
    for b in sol.lattice_basis:
        assert (m @ b).is_zero()
    # the known solution t lies on the returned lattice
    lat = IntLattice(list(sol.lattice_basis), sol.particular)
    assert t in lat


@given(matrices(max_rows=3, max_cols=3).flatmap(
    lambda m: st.tuples(st.just(m), vectors(m.nrows))))
@settings(max_examples=60, deadline=None)
def test_particular_solution_solves(mx):
    m, rhs = mx
    t = solve_particular(m, rhs)
    if t is not None:
        assert m @ t == rhs
    else:
        # rational inconsistency implies integer inconsistency
        assert solve_diophantine(m, rhs) is None


@given(st.lists(st.lists(small_int, min_size=3, max_size=3),
                min_size=0, max_size=3))
@settings(max_examples=60, deadline=None)
def test_subspace_double_complement(rows):
    s = Subspace(3, rows)
    assert s.orthogonal_complement().orthogonal_complement() == s
    assert s.dim + s.orthogonal_complement().dim == 3


@given(st.lists(st.lists(small_int, min_size=3, max_size=3),
                min_size=0, max_size=3),
       st.lists(small_int, min_size=3, max_size=3),
       st.lists(small_int, min_size=3, max_size=3))
@settings(max_examples=200, deadline=None)
def test_coset_key_iff_difference_in_span(rows, a, b):
    """``Q a == Q b`` iff ``a - b`` in the subspace (membership by RREF
    rank is the oracle; it shares no code with ``kernel_rows``)."""
    s = Subspace(3, rows)
    q = s.kernel_rows()
    assert len(q) == 3 - s.dim
    assert all(type(x) is int for row in q for x in row)
    key_a = [sum(x * y for x, y in zip(row, a)) for row in q]
    key_b = [sum(x * y for x, y in zip(row, b)) for row in q]
    assert (key_a == key_b) == ((RatVec(a) - RatVec(b)) in s)


@given(matrices(max_rows=2, max_cols=3))
@settings(max_examples=40, deadline=None)
def test_integer_kernel_basis_annihilates(m):
    for b in integer_kernel_basis(m):
        assert b.is_integral()
        assert (m @ b).is_zero()


@given(st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
                min_size=2, max_size=2))
@settings(max_examples=40, deadline=None)
def test_fm_enumeration_matches_brute_force(bounds):
    """FM-driven enumeration == brute-force scan over a random box + cut."""
    norm = [(min(a, b), max(a, b)) for a, b in bounds]
    s = FMSystem(2)
    for i, (lo, hi) in enumerate(norm):
        s.add_lower(i, lo)
        s.add_upper(i, hi)
    s.add([-1, -1], 2)  # x + y <= 2
    got = {tuple(int(x) for x in p) for p in enumerate_integer_points(s)}
    expected = {
        (x, y)
        for x in range(norm[0][0], norm[0][1] + 1)
        for y in range(norm[1][0], norm[1][1] + 1)
        if x + y <= 2
    }
    assert got == expected


@given(st.lists(small_int, min_size=2, max_size=2),
       st.lists(st.tuples(st.integers(-4, 4), st.integers(-4, 4)),
                min_size=2, max_size=2))
@settings(max_examples=40, deadline=None)
def test_lattice_box_enumeration_complete(offset, deltas):
    """Every enumerated point is in box and on lattice; spot-check completeness."""
    basis = [RatVec([1, 0]), RatVec([0, 2])]
    lat = IntLattice(basis, RatVec(offset))
    lo = [min(a, b) for a, b in zip(*[(d[0], d[1]) for d in deltas])] if False else None
    lo = [-4, -4]
    hi = [4, 4]
    pts = {tuple(int(x) for x in p) for p in lat.points_in_box(lo, hi)}
    brute = {
        (offset[0] + c1, offset[1] + 2 * c2)
        for c1 in range(-12, 13)
        for c2 in range(-12, 13)
        if lo[0] <= offset[0] + c1 <= hi[0] and lo[1] <= offset[1] + 2 * c2 <= hi[1]
    }
    assert pts == brute
