"""Each affine fact of a nest is derived once per plan, in integers.

Over ``Session(text).plan()`` and ``.run(backend="auto")``: ``Q`` (the
integer basis of ``Ker(Psi)``) once per Psi, each subscript's and each
bound's affine form once, each array's Smith form at most once; the
Sec. IV transformation builds a ``Fraction`` only for ``M^-1``'s own
entries; a plan's pickled bytes are the same after it ran, was audited
and reported; and the transformed nest still enumerates every
iteration exactly once.
"""

import fractions
import pickle
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import Session
from repro.core import build_plan
from repro.lang import affine, catalog
from repro.lang.printer import to_source
from repro.pipeline import PLAN_CACHE
from repro.ratlinalg import smith, span
from repro.transform import transform_nest

from tests.strategies import EXPR_SCALARS, PLAN_KWARGS, loop_nests

#: a novel nest as the ledger's serve mix generates them: nonsingular
#: ``H``, a flow dependence ``t = (1, -1)``, a read-only ``B``
NOVEL = """for i = 1 to 4 {
  for j = 1 to 4 {
    S1: A[2*i + 2, -2*i + 2*j + 1] = A[2*i, -2*i + 2*j + 5] * 9 + B[i - 2*j - 1, 2*i - 2*j - 1];
  }
}
"""

CASES = {"L1": to_source(catalog.l1()), "NOVEL": NOVEL}


def _kwargs_id(kwargs: dict) -> str:
    return kwargs["strategy"].value + ("-elim" if kwargs.get(
        "eliminate_redundant") else "")


def _subscripts_and_bounds(text: str) -> int:
    nest = Session(text).nest
    refs = [r for s in nest.statements for r in (s.lhs, *s.rhs.array_refs())]
    return sum(len(r.subscripts) for r in refs) + 2 * nest.depth


def _patch_everywhere(monkeypatch, module, name, wrapper):
    """``module.name`` and every ``repro`` module's imported copy of it."""
    original = getattr(module, name)
    for mod in list(sys.modules.values()):
        if (getattr(mod, "__name__", "").startswith("repro")
                and getattr(mod, name, None) is original):
            monkeypatch.setattr(mod, name, wrapper)
    return original


@pytest.fixture
def counts(monkeypatch):
    """Counters of the derivations: top-level ``affine_of`` calls (it
    recurses through its own module name), Smith forms built, and
    orthogonal complements taken."""
    seen = {"affine_of": 0, "smith_forms": 0, "orthogonal_complement": 0}
    depth = [0]
    affine_of = affine.affine_of

    def counted_affine_of(*args, **kwargs):
        if not depth[0]:
            seen["affine_of"] += 1
        depth[0] += 1
        try:
            return affine_of(*args, **kwargs)
        finally:
            depth[0] -= 1

    init = smith.SmithForm.__init__

    def counted_smith_form(self, *args, **kwargs):
        seen["smith_forms"] += 1
        init(self, *args, **kwargs)

    complement = span.Subspace.orthogonal_complement

    def counted_complement(self):
        seen["orthogonal_complement"] += 1
        return complement(self)

    _patch_everywhere(monkeypatch, affine, "affine_of", counted_affine_of)
    monkeypatch.setattr(smith.SmithForm, "__init__", counted_smith_form)
    monkeypatch.setattr(span.Subspace, "orthogonal_complement",
                        counted_complement)
    PLAN_CACHE.clear()
    return seen


def _plan_and_run(text: str):
    session = Session(text)
    plan = session.plan()
    assert session.run(backend="auto").ok
    return plan


@pytest.mark.parametrize("case", sorted(CASES))
def test_q_is_derived_once_per_psi(counts, case):
    _plan_and_run(CASES[case])
    assert counts["orthogonal_complement"] == 1


@pytest.mark.parametrize("case", sorted(CASES))
def test_each_subscript_and_bound_is_derived_once(counts, case):
    text = CASES[case]
    expected = _subscripts_and_bounds(text)
    counts["affine_of"] = 0
    _plan_and_run(text)
    assert counts["affine_of"] == expected
    if case == "L1":
        assert expected == 14       # 10 subscripts, 4 bounds


@pytest.mark.parametrize("case", sorted(CASES))
def test_smith_forms_at_most_one_per_array(counts, case):
    plan = _plan_and_run(CASES[case])
    assert 0 < counts["smith_forms"] <= len(plan.model.arrays)


@pytest.mark.parametrize("case", sorted(CASES))
def test_the_transformation_builds_fractions_only_for_m_inverse(
        monkeypatch, case):
    """``M^-1``'s inverse and the basis's rational echelon build
    Fractions; the bounds' Fourier-Motzkin and the extended statements
    do not (330 on L1 when they were rational)."""
    plan = build_plan(Session(CASES[case]).nest)
    plan.psi.kernel_rows()          # the plan's Q, derived by the partition
    built = [0]
    new = fractions.Fraction.__new__

    def counted_new(cls, *args, **kwargs):
        built[0] += 1
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(fractions.Fraction, "__new__", counted_new)
    tnest = transform_nest(plan.nest, plan.psi)
    monkeypatch.undo()
    assert built[0] <= 100
    forms = [f for b in tnest.bounds for f in (*b.lowers, *b.uppers)]
    forms += list(tnest.extended.values())
    assert all(type(x) is int for f in forms for x in (*f.coeffs, f.const))


def _bytes_before_and_after_every_op(nest, scalars, **kwargs):
    session = Session(nest, scalars=scalars, **kwargs)
    plan = session.plan()
    before = pickle.dumps(plan)
    assert session.run(backend="auto").ok
    assert session.run(backend="interp").ok
    assert session.audit().communication_free
    assert session.report(p=4).ok
    transform_nest(plan.nest, plan.psi)
    return before, pickle.dumps(plan)


@pytest.mark.parametrize("kwargs", PLAN_KWARGS, ids=_kwargs_id)
@pytest.mark.parametrize("name", sorted(catalog.ALL_LOOPS))
def test_a_plans_bytes_do_not_depend_on_what_ran(name, kwargs, scalars):
    PLAN_CACHE.clear()
    before, after = _bytes_before_and_after_every_op(
        to_source(catalog.ALL_LOOPS[name]()), {**scalars, "ALPHA": 2.5},
        **kwargs)
    assert after == before


@given(loop_nests(), st.sampled_from(PLAN_KWARGS))
@settings(max_examples=15, deadline=None)
def test_a_drawn_plans_bytes_do_not_depend_on_what_ran(nest, kwargs):
    PLAN_CACHE.clear()
    before, after = _bytes_before_and_after_every_op(nest, EXPR_SCALARS,
                                                     **kwargs)
    assert after == before


@given(loop_nests())
@settings(max_examples=30, deadline=None)
def test_the_transformed_nest_enumerates_every_iteration_once(nest):
    plan = build_plan(nest)
    tnest = transform_nest(plan.nest, plan.psi)
    points = [it for block in tnest.iterate_blocks()
              for it in tnest.iterations_of_block(block)]
    assert len(points) == len(set(points))
    assert set(points) == set(plan.model.space.iterate())
