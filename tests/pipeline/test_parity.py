"""Pipeline-vs-hand-sequenced parity on the paper's catalog loops.

The pass pipeline (and the ``build_plan`` facade over it) must produce
exactly the plan the directly-sequenced Section II-III primitives give:
same summary text, same iteration blocks, same data blocks -- for every
catalog loop under every strategy the paper exercises.
"""

import pytest

from repro.analysis import analyze_redundancy, extract_references
from repro.core import Strategy, build_plan, partitioning_space
from repro.core.partition import all_data_partitions, iteration_partition
from repro.core.plan import PartitionPlan
from repro.lang import catalog
from repro.pipeline import PipelineConfig, run_pipeline


# (loop factory, strategy, duplicate_arrays, eliminate) -- the paper's cases
CASES = [
    ("L1", catalog.l1, Strategy.NONDUPLICATE, None, False),
    ("L2", catalog.l2, Strategy.NONDUPLICATE, None, False),
    ("L2'", catalog.l2, Strategy.DUPLICATE, None, False),
    ("L3", catalog.l3, Strategy.NONDUPLICATE, None, False),
    ("L3+elim", catalog.l3, Strategy.DUPLICATE, None, True),
    ("L4", catalog.l4, Strategy.NONDUPLICATE, None, False),
    ("L5", catalog.l5, Strategy.NONDUPLICATE, None, False),
    ("L5'", catalog.l5, Strategy.DUPLICATE, {"B"}, False),
    ("L5''", catalog.l5, Strategy.DUPLICATE, None, False),
]


def hand_sequenced(nest, strategy, duplicate_arrays, eliminate):
    """The seed's build_plan body, inlined step by step."""
    model = extract_references(nest)
    redundancy = analyze_redundancy(model) if eliminate else None
    breakdown = partitioning_space(
        model, strategy=strategy, duplicate_arrays=duplicate_arrays,
        eliminate_redundant=eliminate, redundancy=redundancy)
    blocks = iteration_partition(model.space, breakdown.psi)
    live = redundancy.live if redundancy is not None else None
    data_blocks = all_data_partitions(model, blocks, live=live)
    return PartitionPlan(nest=nest, model=model, breakdown=breakdown,
                         blocks=blocks, data_blocks=data_blocks)


def assert_same_plan(a, b):
    assert a.summary() == b.summary()
    assert a.psi == b.psi
    assert [blk.iterations for blk in a.blocks] \
        == [blk.iterations for blk in b.blocks]
    assert a.data_blocks.keys() == b.data_blocks.keys()
    for name in a.data_blocks:
        assert [db.elements for db in a.data_blocks[name]] \
            == [db.elements for db in b.data_blocks[name]]
    assert a.live == b.live


@pytest.mark.parametrize("label,factory,strategy,dup,elim",
                         CASES, ids=[c[0] for c in CASES])
class TestParity:
    def test_pipeline_matches_hand_sequence(self, label, factory, strategy,
                                            dup, elim):
        nest = factory()
        expected = hand_sequenced(factory(), strategy, dup, elim)
        config = PipelineConfig(
            strategy=strategy,
            duplicate_arrays=frozenset(dup) if dup is not None else None,
            eliminate_redundant=elim,
            use_cache=False)
        assert_same_plan(run_pipeline(nest, config, upto="partition").plan,
                         expected)

    def test_facade_matches_hand_sequence(self, label, factory, strategy,
                                          dup, elim):
        expected = hand_sequenced(factory(), strategy, dup, elim)
        got = build_plan(factory(), strategy, duplicate_arrays=dup,
                         eliminate_redundant=elim, use_cache=False)
        assert_same_plan(got, expected)

    def test_cache_served_matches_hand_sequence(self, label, factory,
                                                strategy, dup, elim):
        """Even a cache hit must be indistinguishable from a fresh build."""
        from repro.pipeline import PlanCache

        cache = PlanCache(maxsize=8)
        expected = hand_sequenced(factory(), strategy, dup, elim)
        config = PipelineConfig(
            strategy=strategy,
            duplicate_arrays=frozenset(dup) if dup is not None else None,
            eliminate_redundant=elim)
        run_pipeline(factory(), config, cache=cache)
        served = run_pipeline(factory(), config, cache=cache).plan
        assert cache.hits == 1
        assert_same_plan(served, expected)
