"""DataSpace storage and footprint computation."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import extract_references
from repro.lang import catalog, parse
from repro.runtime import DataSpace, array_footprints, default_init, make_arrays

try:
    import numpy
except ImportError:   # the no-numpy CI axis
    numpy = None


class TestDataSpace:
    def test_offset_indexing(self):
        ds = DataSpace("A", (0, 2), (4, 5))
        ds[(0, 2)] = 1.5
        ds[(4, 5)] = 2.5
        assert ds[(0, 2)] == 1.5
        assert ds[(4, 5)] == 2.5

    def test_negative_origins(self):
        ds = DataSpace("A", (-3,), (3,))
        ds[(-3,)] = 9.0
        assert ds[(-3,)] == 9.0

    def test_out_of_bounds(self):
        ds = DataSpace("A", (1,), (4,))
        with pytest.raises(IndexError):
            _ = ds[(0,)]
        with pytest.raises(IndexError):
            ds[(5,)] = 1.0
        with pytest.raises(IndexError):
            _ = ds[(1, 1)]

    def test_contains(self):
        ds = DataSpace("A", (0, 0), (2, 2))
        assert (1, 1) in ds and (3, 0) not in ds

    def test_empty_bounds_rejected(self):
        with pytest.raises(ValueError):
            DataSpace("A", (2,), (1,))

    def test_fill_copy_equality(self):
        ds = DataSpace("A", (0,), (3,)).fill_with(lambda c: c[0] * 2.0)
        cp = ds.copy()
        assert ds == cp
        cp[(0,)] = 99.0
        assert ds != cp

    def test_coords_iter_covers_all(self):
        ds = DataSpace("A", (1, 1), (2, 3))
        assert len(list(ds.coords_iter())) == 6


class TestFootprints:
    def test_l1_matches_paper_ranges(self, l1):
        fp = array_footprints(extract_references(l1))
        # paper Fig. 1: A[0:8,0:4], B[1:4,2:5], C[0:4,0:4]
        assert fp["A"] == ((0, 0), (8, 4))
        assert fp["B"] == ((1, 2), (4, 5))
        assert fp["C"] == ((0, 0), (4, 4))

    def test_l2_ranges(self, l2):
        fp = array_footprints(extract_references(l2))
        # paper Fig. 4: A[1:8,1:8], B[1:8,0:4]
        assert fp["A"] == ((1, 1), (8, 8))
        assert fp["B"] == ((1, 0), (8, 4))

    def test_footprint_covers_every_access(self):
        nest = parse("for i = 1 to 5 { A[3 - i] = B[2*i + 1]; }")
        model = extract_references(nest)
        fp = array_footprints(model)
        for name in ("A", "B"):
            lo, hi = fp[name]
            info = model.arrays[name]
            for it in model.space.iterate():
                for ref in info.references:
                    (x,) = info.element_at(it, ref.c)
                    assert lo[0] <= x <= hi[0]


class TestMakeArrays:
    def test_all_arrays_allocated(self, l1):
        arrays = make_arrays(extract_references(l1))
        assert set(arrays) == {"A", "B", "C"}
        assert (0, 0) in arrays["A"]

    def test_default_init_deterministic_and_distinct(self):
        f = default_init("A")
        g = default_init("A")
        assert f((1, 2)) == g((1, 2))
        assert f((1, 2)) != f((2, 1))
        assert default_init("B")((1, 2)) != f((1, 2))

    def test_custom_init(self, l1):
        arrays = make_arrays(extract_references(l1),
                             init=lambda name: (lambda c: 42.0))
        assert arrays["C"][(1, 1)] == 42.0


class TestBulkFillAndCompare:
    """``fill_with`` / ``box_values`` / ``assign_box`` / ``differences``
    go through the flat value list in one step; the per-element
    ``__setitem__`` / ``__getitem__`` walk is the reference."""

    BOUNDS = [((0, 0), (8, 4)),      # L1's A[0:8, 0:4]
              ((1, 2), (4, 5)),      # ranges that do not start at 0
              ((-3, -1), (2, 0)),    # negative origins
              ((-2,), (3,))]

    @pytest.mark.parametrize("lo,hi", BOUNDS)
    def test_fill_with_equals_per_element_fill(self, lo, hi, backing):
        def fn(c):
            return sum((j + 2) * x * 0.25 for j, x in enumerate(c)) + 1 / 3

        bulk = DataSpace("A", lo, hi).fill_with(fn)
        ref = DataSpace("A", lo, hi)
        for c in ref.coords_iter():
            ref[c] = fn(c)
        assert bulk == ref
        assert all(bulk[c] == fn(c) for c in bulk.coords_iter())
        assert type(bulk.values) is type(ref.values) is list

    def test_fill_with_integer_valued_initialiser(self, backing):
        ds = DataSpace("A", (1,), (3,)).fill_with(lambda c: c[0])
        assert [ds[(i,)] for i in (1, 2, 3)] == [1.0, 2.0, 3.0]
        assert all(type(v) is float for v in ds.box_values((1,), (3,)))

    @pytest.mark.parametrize("lo,hi", BOUNDS)
    def test_value_table_equals_getitem(self, lo, hi, backing):
        """The table is a box of the array now (``box_values``): the
        whole array, and every box with a corner at ``lo`` or ``hi``."""
        ds = DataSpace("A", lo, hi).fill_with(default_init("A"))
        shape = tuple(h - l + 1 for l, h in zip(lo, hi))
        boxes = [(lo, shape)]
        boxes += [(lo, tuple(max(1, n - 1) for n in shape)),
                  (tuple(h - n // 2 for h, n in zip(hi, shape)),
                   tuple(n // 2 + 1 for n in shape))]
        for blo, bshape in boxes:
            inside = list(itertools.product(
                *(range(l, l + n) for l, n in zip(blo, bshape))))
            table = ds.box_values(blo, bshape)
            assert table == [ds[c] for c in inside]
            assert all(type(v) is float for v in table)
            # and back: ``assign_box`` writes that box and nothing else
            out = ds.copy()
            out.assign_box(blo, bshape, [-v for v in table])
            assert all(out[c] == (-ds[c] if c in inside else ds[c])
                       for c in ds.coords_iter())
        with pytest.raises(IndexError, match="A"):
            ds.box_values(lo, tuple(n + 1 for n in shape))

    def test_differences_in_coordinate_order_with_both_values(self, backing):
        a = DataSpace("A", (1, -1), (2, 1)).fill_with(default_init("A"))
        b = a.copy()
        assert a.differences(b) == []
        b[(2, 0)] = -1.0
        b[(1, 1)] = -2.0
        assert a.differences(b) == [((1, 1), a[(1, 1)], -2.0),
                                    ((2, 0), a[(2, 0)], -1.0)]

    def test_nan_differs_even_from_itself(self, backing):
        a = DataSpace("A", (0,), (2,))
        a[(1,)] = float("nan")
        ((coords, x, y),) = a.differences(a.copy())
        assert coords == (1,) and x != x and y != y

    def test_differences_refuses_other_bounds(self, backing):
        with pytest.raises(IndexError):
            DataSpace("A", (0,), (2,)).differences(DataSpace("A", (0,), (3,)))


class TestEquality:
    """``==`` is the same elementwise float ``!=`` as ``differences``:
    it cannot say "equal" where ``differences`` lists an element."""

    def test_nan_is_unequal_and_agrees_with_differences(self):
        a = DataSpace("A", (0,), (2,))
        a[(1,)] = float("nan")
        b = a.copy()   # shares the NaN *object*: list.__eq__ says equal
        assert b.values[1] is a.values[1]
        assert not a == b and a != b
        assert (a == b) == (not a.differences(b))

    def test_negative_zero_equals_zero(self):
        a, b = DataSpace("A", (0,), (1,)), DataSpace("A", (0,), (1,))
        b[(0,)] = -0.0
        assert a == b and a.differences(b) == []

    def test_unequal_bounds_are_unequal(self):
        assert DataSpace("A", (0,), (2,)) != DataSpace("A", (1,), (3,))
        assert DataSpace("A", (0,), (2,)) != DataSpace("A", (0,), (3,))
        assert DataSpace("A", (0,), (2,)) != "A"


# -- the list operations against the per-element walk -------------------------

@st.composite
def arrays_and_boxes(draw):
    """A filled array over drawn bounds (negative origins, rank 1-3)
    and a box ``(lo, shape)`` inside it."""
    rank = draw(st.integers(1, 3))
    lo = tuple(draw(st.integers(-3, 3)) for _ in range(rank))
    shape = tuple(draw(st.integers(1, 4)) for _ in range(rank))
    hi = tuple(l + n - 1 for l, n in zip(lo, shape))
    ds = DataSpace("A", lo, hi).fill_with(default_init("A"))
    whole = draw(st.booleans())
    blo = lo if whole else tuple(draw(st.integers(l, h))
                                 for l, h in zip(lo, hi))
    bshape = shape if whole else tuple(draw(st.integers(1, h - b + 1))
                                       for b, h in zip(blo, hi))
    return ds, blo, bshape


def _per_element(ds):
    return {c: ds[c] for c in ds.coords_iter()}


@settings(max_examples=200, deadline=None)
@given(arrays_and_boxes())
def test_list_operations_equal_the_per_element_walk(drawn):
    ds, blo, bshape = drawn
    before = _per_element(ds)
    inside = list(itertools.product(
        *(range(l, l + n) for l, n in zip(blo, bshape))))

    # box_values: the walk's values, and never an alias of ``values``
    box = ds.box_values(blo, bshape)
    assert box == [ds[c] for c in inside]
    box[:] = [float("inf")] * len(box)
    assert _per_element(ds) == before

    # copy / ==: independent storage, equal until an element changes
    other = ds.copy()
    assert other == ds and other.values is not ds.values
    assert _per_element(other) == before

    # assign_box: that box and nothing else
    other.assign_box(blo, bshape,
                     [-v - 1.0 for v in ds.box_values(blo, bshape)])
    walked = ds.copy()
    for c in inside:
        walked[c] = -ds[c] - 1.0
    assert _per_element(other) == _per_element(walked)
    assert _per_element(ds) == before

    # differences / ==: exactly the elements the walk finds changed
    assert other.differences(ds) == [(c, other[c], ds[c]) for c in inside]
    assert (other == ds) is False and (other == walked) is True

    # .data: the nested-rows form of the same values
    shape = tuple(h - l + 1 for l, h in zip(ds.lo, ds.hi))
    rows = ds.data
    for c in ds.coords_iter():
        cell = rows
        for x, l in zip(c, ds.lo):
            cell = cell[x - l]
        assert cell == ds[c]
    if numpy is not None:
        grid = numpy.array(ds.data)
        assert grid.shape == shape
        assert all(grid[tuple(x - l for x, l in zip(c, ds.lo))] == ds[c]
                   for c in ds.coords_iter())
