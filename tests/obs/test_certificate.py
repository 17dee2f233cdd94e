"""The algebraic certificate against brute force.

The oracle here shares nothing with the checker: it enumerates every
pair of accesses that touch one element from two blocks (for replicated
arrays, only a write executed before a read -- a flow pair).
"""

from collections import Counter
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Strategy, build_plan
from repro.lang import catalog
from repro.lang.space import IterationSpace
from repro.obs.certificate import (ArrayRefs, Certificate, certify_plan,
                                   check)
from repro.ratlinalg import Subspace, smith_normal_form

from tests.strategies import PLAN_KWARGS, loop_nests, repartitioned


def collisions(plan):
    """``(array, c1, i1, c2, i2)`` for every cross-block pair of accesses
    to one element; flow pairs only (``c1`` writes before ``c2`` reads)
    for replicated arrays."""
    order = {it: n for n, it in enumerate(plan.model.space.iterate())}
    out = set()
    for name, info in plan.model.arrays.items():
        replicated = name in plan.breakdown.duplicated_arrays
        touched = {}
        for it in order:
            for ref in info.references:
                touched.setdefault(info.element_at(it, ref.c), []).append(
                    (ref, it))
        for accesses in touched.values():
            for ra, ia in accesses:
                for rb, ib in accesses:
                    if plan.block_of(ia) == plan.block_of(ib):
                        continue
                    if replicated and not (ra.is_write and not rb.is_write
                                           and order[ia] < order[ib]):
                        continue
                    out.add((name, ra.c, ia, rb.c, ib))
    return out


def without_first_basis_vector(plan):
    """The same nest partitioned on a smaller space than its ``Psi``."""
    return repartitioned(
        plan, Subspace(plan.psi.ambient_dim, plan.psi.primitive_basis()[1:]))


def assert_sound(plan, stats):
    cert = certify_plan(plan)
    stats["checked"] += 1
    if not cert.decided:
        stats["undecided"] += 1
        return
    found = collisions(plan)
    if cert.free:
        stats["free"] += 1
        assert not found
        return
    stats["refuted"] += 1
    w = cert.witness
    far = tuple(a + b for a, b in zip(w.i, w.t))
    assert plan.block_of(w.i) != plan.block_of(far)
    assert w.r == tuple(a - b for a, b in zip(w.c1, w.c2))
    assert (w.array, w.c1, w.i, w.c2, far) in found


def test_sound_on_generated_nests():
    stats = Counter()

    @given(loop_nests(), st.sampled_from(PLAN_KWARGS))
    @settings(deadline=None)
    def run(nest, kwargs):
        plan = build_plan(nest, use_cache=False, **kwargs)
        if plan.live is not None:
            assert certify_plan(plan) == Certificate(False, reason="live mask")
            return
        assert_sound(plan, stats)
        if plan.psi.dim:
            assert_sound(without_first_basis_vector(plan), stats)

    run()
    assert stats["free"] and stats["refuted"], stats
    assert stats["undecided"] < 0.2 * stats["checked"], stats


@pytest.mark.parametrize("name", sorted(catalog.ALL_LOOPS))
@pytest.mark.parametrize("strategy", list(Strategy))
def test_catalog_plans_are_decided_and_agree(name, strategy):
    plan = build_plan(catalog.ALL_LOOPS[name](), strategy=strategy)
    stats = Counter()
    assert_sound(plan, stats)
    assert stats["free"] == 1
    if plan.psi.dim:
        assert_sound(without_first_basis_vector(plan), stats)
        assert not stats["undecided"]


class TestCheck:
    """The checker on bare ``(H, c, bounds, Q)``."""

    SPACE = IterationSpace(catalog.l1())               # 1..4 x 1..4
    A = ArrayRefs("A", smith_normal_form([[2, 0], [0, 1]]),
                  writes=((0, 0),), reads=((-2, -1),), replicated=False)

    def test_the_papers_psi_is_proved(self):
        assert check([self.A], self.SPACE, [(1, -1)]).free   # span{(1,1)}

    def test_a_cut_across_the_dependence_is_refuted(self):
        cert = check([self.A], self.SPACE, [(0, 1)])         # span{(1,0)}
        w = cert.witness
        assert not cert.free and cert.decided
        assert (w.array, w.c1, w.c2, w.r, w.t) == (
            "A", (0, 0), (-2, -1), (2, 1), (1, 1))
        assert w.i in self.SPACE

    def test_no_integer_solution_is_free(self):
        odd = replace(self.A, reads=((-1, -1),))    # 2 t_1 = 1
        assert check([odd], self.SPACE, [(1, 0), (0, 1)]).free

    def test_a_solution_outside_the_bounds_is_free(self):
        far = replace(self.A, reads=((-8, -1),))    # t = (4, 1)
        assert check([far], self.SPACE, [(1, 0), (0, 1)]).free

    def test_a_replicated_array_ignores_anti_pairs(self):
        # A[i] = A[i + 1]: the read runs before the write it meets
        a = ArrayRefs("A", smith_normal_form([[1, 0]]), writes=((0,),),
                      reads=((1,),), replicated=True)
        assert check([a], self.SPACE, [(1, 0), (0, 1)]).free
        assert not check([replace(a, replicated=False)], self.SPACE,
                         [(1, 0), (0, 1)]).free

    def test_a_singular_h_needs_its_kernel(self):
        a = ArrayRefs("A", smith_normal_form([[1, 1]]), writes=((0,),),
                      reads=(), replicated=False)
        assert check([a], self.SPACE, [(1, 1)]).free         # span{(1,-1)}
        t = check([a], self.SPACE, [(1, 0)]).witness.t      # span{(0,1)}
        assert t[0] + t[1] == 0 and t[0] != 0

    def test_one_block_is_trivially_free(self):
        assert check([self.A], self.SPACE, []) == Certificate(True)

    def test_search_budget_is_undecided(self, monkeypatch):
        from repro.obs import certificate

        monkeypatch.setattr(certificate, "BUDGET", 0)
        cert = check([self.A], self.SPACE, [(0, 1)])
        assert not cert.decided and "budget" in cert.reason

    def test_a_search_that_ends_within_the_budget_decides(self, monkeypatch):
        """Only a search cut short is undecided: ``t + 5u = 0`` has one
        solution in the difference box, ``t = 0``, and one candidate
        fits a budget of one."""
        from repro.obs import certificate

        a = ArrayRefs("A", smith_normal_form([[1, 5]]), ((0,),), ((0,),), False)
        q = Subspace(2, [(1, 0)]).kernel_rows()
        assert check([a], self.SPACE, q).free
        monkeypatch.setattr(certificate, "BUDGET", 1)
        assert check([a], self.SPACE, q).free
        monkeypatch.setattr(certificate, "BUDGET", 0)
        assert not check([a], self.SPACE, q).decided
