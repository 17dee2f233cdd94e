"""Property test: stepped loops are semantically equivalent to their
manually re-indexed normalized counterparts."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import extract_references
from repro.lang import IterationSpace, parse
from repro.runtime import make_arrays, run_sequential


@given(lo=st.integers(-3, 3), span=st.integers(0, 9), step=st.integers(1, 4),
       off=st.integers(-2, 2))
@settings(max_examples=60, deadline=None)
def test_stepped_equals_manual_reindex(lo, span, step, off):
    hi = lo + span
    stepped = parse(
        f"for i = {lo} to {hi} step {step} "
        f"{{ A[i] = B[i + {off}] + A[i - {step}]; }}")
    trips = max(0, (hi - lo) // step + 1)
    manual = parse(
        f"for k = 1 to {trips} {{ "
        f"A[{step}*k + {lo - step}] = "
        f"B[{step}*k + {lo - step + off}] + A[{step}*k + {lo - 2 * step}]; }}")

    assert IterationSpace(stepped).size() == trips

    if trips == 0:
        return
    m1 = extract_references(stepped)
    m2 = extract_references(manual)
    a1 = make_arrays(m1)
    a2 = {n: ds.copy() for n, ds in make_arrays(m2).items()}
    # align initial values by coordinate (the two models compute the same
    # footprints since they touch the same elements)
    for n in a1:
        assert a1[n].lo == a2[n].lo and a1[n].hi == a2[n].hi
    run_sequential(stepped, a1)
    run_sequential(manual, a2)
    for n in a1:
        assert a1[n] == a2[n]


@given(lo=st.integers(-2, 2), hi=st.integers(3, 8), step=st.integers(2, 3))
@settings(max_examples=40, deadline=None)
def test_stepped_iteration_values(lo, hi, step):
    """The normalized nest touches exactly {lo, lo+step, ...} <= hi."""
    nest = parse(f"for i = {lo} to {hi} step {step} {{ A[i] = 1; }}")
    model = extract_references(nest)
    info = model.arrays["A"]
    touched = sorted(info.element_at(it, info.references[0].c)[0]
                     for it in model.space.iterate())
    assert touched == list(range(lo, hi + 1, step))
