"""Loop normalization: step removal and re-indexing."""

import pytest

from repro.analysis import extract_references
from repro.lang import IterationSpace, ParseError, parse
from repro.lang.ast import Const, Name
from repro.lang.normalize import (
    NormalizationError,
    RawLoopLevel,
    normalize_steps,
    substitute,
)
from repro.runtime import make_arrays, run_sequential


class TestSubstitute:
    def test_name_replaced(self):
        e = parse("for i = 1 to 2 { A[i] = B[i + 1] * i; }").statements[0].rhs
        out = substitute(e, {"i": Const(5)})
        names = set(out.names())
        assert "i" not in names

    def test_untouched_names_kept(self):
        e = parse("for i = 1 to 2 { A[i] = B[i] + D; }").statements[0].rhs
        out = substitute(e, {"i": Name("x")})
        assert set(out.names()) == {"x", "D"}


class TestSteppedParsing:
    def test_trip_count(self):
        nest = parse("for i = 1 to 10 step 3 { A[i] = 0; }")
        # i' in 1..4; i = 1 + (i'-1)*3 hits 1,4,7,10
        assert IterationSpace(nest).size() == 4
        info = extract_references(nest).arrays["A"]
        elems = sorted(info.element_at((ip,), info.references[0].c)
                       for ip in range(1, 5))
        assert elems == [(1,), (4,), (7,), (10,)]

    def test_stepped_lower_offset(self):
        nest = parse("for i = 2 to 9 step 2 { A[i] = 0; }")
        info = extract_references(nest).arrays["A"]
        elems = sorted(info.element_at((ip,), info.references[0].c)
                       for ip in range(1, 5))
        assert elems == [(2,), (4,), (6,), (8,)]

    def test_semantics_equivalent(self):
        stepped = parse("for i = 1 to 7 step 2 { A[i] = A[i - 2] + 1; }")
        manual = parse("for k = 1 to 4 { A[2*k - 1] = A[2*k - 3] + 1; }")
        a1 = make_arrays(extract_references(stepped),
                         init=lambda n: (lambda c: 0.0))
        a2 = {"A": a1["A"].copy()}
        run_sequential(stepped, a1)
        run_sequential(manual, a2)
        assert a1["A"].values == a2["A"].values

    def test_nested_step_with_dependent_inner(self):
        nest = parse("""
            for i = 1 to 8 step 4 {
              for j = 1 to i {
                T[i, j] = 0;
              }
            }
        """)
        # outer hits i=1,5 -> inner bound becomes 1 + (i'-1)*4
        sp = IterationSpace(nest)
        assert sp.size() == 1 + 5

    def test_empty_stepped_loop(self):
        nest = parse("for i = 5 to 4 step 2 { A[i] = 0; }")
        assert IterationSpace(nest).size() == 0

    def test_step_one_noop(self):
        a = parse("for i = 2 to 5 { A[i] = 0; }")
        b = parse("for i = 2 to 5 step 1 { A[i] = 0; }")
        assert a.statements == b.statements
        assert a.lowers == b.lowers and a.uppers == b.uppers


class TestRejection:
    def test_zero_step(self):
        with pytest.raises(ParseError, match="step 0"):
            parse("for i = 1 to 4 step 0 { A[i] = 0; }")

    def test_negative_step(self):
        with pytest.raises(ParseError, match="negative step"):
            parse("for i = 4 to 1 step -1 { A[i] = 0; }")

    def test_affine_bounds_with_step(self):
        with pytest.raises(ParseError, match="not affine"):
            parse("""
                for i = 1 to 8 {
                  for j = 1 to i step 2 { A[i, j] = 0; }
                }
            """)


class TestDirectApi:
    def test_normalize_steps_direct(self):
        from repro.lang import builder as b

        levels = [RawLoopLevel("i", Const(0), Const(9), 3)]
        stmts = [b.assign(b.ref("A", "i"), 1)]
        nest = normalize_steps(levels, stmts, name="N")
        assert nest.name == "N"
        assert IterationSpace(nest).size() == 4  # 0,3,6,9

    def test_pipeline_on_stepped_loop(self):
        """A stepped loop flows through partitioning + verification."""
        from repro.core import build_plan
        from repro.runtime import verify_plan

        nest = parse("""
            for i = 1 to 8 step 2 {
              for j = 1 to 4 {
                U[i, j] = U[i, j - 1] + F[i, j];
              }
            }
        """)
        plan = build_plan(nest)
        assert plan.num_blocks == 4  # the 4 odd rows are independent
        verify_plan(plan).raise_on_failure()
