"""Additional property suites: affine-bounded loops, SPMD equivalence
and sabotage detection."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Strategy, build_plan
from repro.core.plan import check_no_interblock_flow
from repro.lang import builder as b
from repro.lang import parse
from repro.lang.ast import Assign, BinOp, Const
from repro.mapping import shape_grid
from repro.runtime import make_arrays, run_sequential, verify_plan
from repro.transform import compile_spmd, transform_nest
from tests.transform.test_loopnest import assert_closed_form_is_the_partition

# ---------------------------------------------------------------------------
# affine-bounded (triangular/trapezoidal) random loops
# ---------------------------------------------------------------------------

@st.composite
def affine_bounded_nests(draw):
    n1 = draw(st.integers(3, 5))
    # inner bounds: one of j<=i, j<=i+1, j from i to n
    shape = draw(st.sampled_from(["tri_up", "tri_shift", "band"]))
    o1 = draw(st.integers(-1, 1))
    o2 = draw(st.integers(-1, 1))
    if shape == "tri_up":
        inner = ("1", "i")
    elif shape == "tri_shift":
        inner = ("1", "i + 1")
    else:
        inner = ("i", str(n1))
    body = f"A[i, j] = A[i - 1, j - 1] + B[i + {o1}, j + {o2}];"
    src = f"""
        for i = 1 to {n1} {{
          for j = {inner[0]} to {inner[1]} {{
            {body}
          }}
        }}
    """
    return parse(src, name="AFF")


@given(affine_bounded_nests(),
       st.sampled_from([Strategy.NONDUPLICATE, Strategy.DUPLICATE]))
@settings(max_examples=40, deadline=None)
def test_affine_bounded_pipeline(nest, strategy):
    plan = build_plan(nest, strategy)
    check_no_interblock_flow(plan)
    report = verify_plan(plan)
    assert report.communication_free and report.equal


@given(affine_bounded_nests())
@settings(max_examples=25, deadline=None)
def test_affine_bounded_transform_bijection(nest):
    assert_closed_form_is_the_partition(build_plan(nest))   # per block


# ---------------------------------------------------------------------------
# SPMD equivalence on random non-duplicate plans
# ---------------------------------------------------------------------------

@st.composite
def simple_nests(draw):
    n = draw(st.integers(2, 4))
    di = draw(st.integers(0, 2))
    dj = draw(st.integers(-2, 2))
    c = draw(st.integers(1, 3))
    src = f"""
        for i = 1 to {n} {{
          for j = 1 to {n} {{
            U[i, j] = U[i - {di}, j - {dj}] * {c} + F[i, j];
          }}
        }}
    """
    return parse(src, name="SPMDRAND")


@given(simple_nests(), st.integers(1, 4))
@settings(max_examples=30, deadline=None)
def test_spmd_equivalence_random(nest, p):
    plan = build_plan(nest)  # non-duplicate: any PE order is sound
    t = transform_nest(nest, plan.psi)
    grid = shape_grid(p, t.k)
    run_pe = compile_spmd(t, grid)
    arrays = make_arrays(plan.model)
    got = {n_: a.copy() for n_, a in arrays.items()}
    for proc in grid.coords():
        run_pe(proc, got, {})
    expected = {n_: a.copy() for n_, a in arrays.items()}
    run_sequential(nest, expected)
    assert got == expected


# ---------------------------------------------------------------------------
# sabotage: a wrong partitioning space is detected
# ---------------------------------------------------------------------------

class TestSabotageDetection:
    def _bad_plan(self):
        """L1 partitioned along (1,0): cuts the (1,1) flow dependence."""
        from repro.analysis import extract_references
        from repro.core.partition import (all_data_partitions,
                                          iteration_partition)
        from repro.core.plan import PartitionPlan
        from repro.core.strategy import partitioning_space
        from repro.lang import catalog
        from repro.ratlinalg import Subspace

        nest = catalog.l1()
        model = extract_references(nest)
        bad = Subspace(2, [[1, 0]])
        breakdown = partitioning_space(model)
        breakdown.psi = bad
        blocks = iteration_partition(model.space, bad)
        return PartitionPlan(
            nest=nest, model=model, breakdown=breakdown, blocks=blocks,
            data_blocks=all_data_partitions(model, blocks))

    def test_static_check_catches_it(self):
        with pytest.raises(AssertionError, match="crosses blocks"):
            check_no_interblock_flow(self._bad_plan())

    def test_runtime_verification_catches_it(self):
        report = verify_plan(self._bad_plan())
        # the duplicate data partition hides the element in both blocks,
        # so execution completes -- but the merged values must be wrong
        # OR remote accesses occurred; either way verification fails.
        assert not report.ok
