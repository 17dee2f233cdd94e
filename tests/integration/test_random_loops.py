"""Property-based pipeline tests on randomly generated loop nests.

The generator (``tests/strategies.py``) produces arbitrary *uniformly
generated* nests (random reference matrices ``H`` per array, random
offsets per reference, random statement structure).  For every
generated nest and every strategy, the pipeline's guarantees must hold:

- blocks partition the iteration space;
- non-duplicate data blocks are disjoint;
- parallel execution touches only local memory (zero remote accesses);
- the merged parallel result is bit-identical to sequential execution;
- the transformed nest enumerates exactly the iteration space, blocks
  matching the partition.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Strategy, build_plan
from repro.core.plan import check_all
from repro.runtime import verify_plan
from repro.transform import transform_nest

from tests.strategies import PLAN_KWARGS as STRATEGIES
from tests.strategies import loop_nests


@given(loop_nests(), st.sampled_from(range(len(STRATEGIES))))
@settings(max_examples=60, deadline=None)
def test_pipeline_invariants_on_random_loops(nest, strategy_idx):
    kwargs = STRATEGIES[strategy_idx]
    plan = build_plan(nest, **kwargs)
    check_all(plan)
    report = verify_plan(plan)
    assert report.communication_free
    assert report.equal, report.mismatches[:3]


@given(loop_nests())
@settings(max_examples=40, deadline=None)
def test_duplicate_never_less_parallel(nest):
    nd = build_plan(nest)
    dup = build_plan(nest, Strategy.DUPLICATE)
    assert dup.psi.is_subspace_of(nd.psi)
    assert dup.num_blocks >= nd.num_blocks


@given(loop_nests())
@settings(max_examples=40, deadline=None)
def test_transform_bijection_on_random_loops(nest):
    plan = build_plan(nest, Strategy.DUPLICATE)
    tnest = transform_nest(nest, plan.psi)
    got = sorted(tnest.all_iterations())
    expected = sorted(plan.model.space.points())
    assert got == expected
    # block structure agrees with the partition
    for blk in tnest.iterate_blocks():
        ids = {plan.block_of(it) for it in tnest.iterations_of_block(blk)}
        assert len(ids) <= 1


@given(loop_nests())
@settings(max_examples=30, deadline=None)
def test_minimal_spaces_shrink(nest):
    full = build_plan(nest, Strategy.DUPLICATE)
    mini = build_plan(nest, Strategy.DUPLICATE, eliminate_redundant=True)
    assert mini.psi.is_subspace_of(full.psi)
    assert mini.num_blocks >= full.num_blocks
