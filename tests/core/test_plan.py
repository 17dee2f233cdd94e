"""PartitionPlan orchestration and static checks."""

import pytest

from repro.core import Strategy, build_plan
from repro.core.plan import (
    check_all,
    check_data_blocks_disjoint,
    check_no_interblock_flow,
    check_partition_covers_space,
)
from repro.lang import catalog


class TestBuildPlan:
    def test_plan_fields(self, l1):
        plan = build_plan(l1)
        assert plan.num_blocks == 7
        assert plan.degree_of_parallelism == 7
        assert plan.strategy is Strategy.NONDUPLICATE
        assert plan.live is None

    def test_block_of(self, l1):
        plan = build_plan(l1)
        assert plan.block_of((1, 1)) == plan.block_of((3, 3))
        assert plan.block_of((1, 1)) != plan.block_of((2, 1))

    def test_owners_of_element_nondup_unique(self, l1):
        plan = build_plan(l1)
        owners = plan.owners_of_element("A", (2, 1))
        assert len(owners) == 1

    def test_owners_of_element_duplicated(self, l5):
        plan = build_plan(l5, Strategy.DUPLICATE)
        owners = plan.owners_of_element("B", (1, 1))
        assert len(owners) == 4  # one per i-block at fixed j

    def test_replication_factors(self, l5):
        plan = build_plan(l5, Strategy.DUPLICATE, duplicate_arrays={"B"})
        assert plan.replication_factor("B") == pytest.approx(4.0)
        assert plan.replication_factor("A") == pytest.approx(1.0)
        assert plan.replication_factor("C") == pytest.approx(1.0)

    def test_executes_respects_liveness(self, l3):
        plan = build_plan(l3, Strategy.DUPLICATE, eliminate_redundant=True)
        assert not plan.executes(0, (1, 1))   # redundant S1
        assert plan.executes(0, (1, 4))
        assert plan.executes(1, (1, 1))

    def test_executes_all_without_elimination(self, l3):
        plan = build_plan(l3)
        assert plan.executes(0, (1, 1))

    def test_summary_text(self, l1):
        s = build_plan(l1).summary()
        assert "blocks: 7" in s
        assert "Psi_A" in s and "nonduplicate" in s

    def test_model_reuse(self, l1):
        from repro.analysis import extract_references

        model = extract_references(l1)
        plan = build_plan(l1, model=model)
        assert plan.model is model


class TestStaticChecks:
    @pytest.mark.parametrize("fn,kwargs", [
        (catalog.l1, dict()),
        (catalog.l1, dict(strategy=Strategy.DUPLICATE)),
        (catalog.l2, dict(strategy=Strategy.DUPLICATE)),
        (catalog.l3, dict(strategy=Strategy.DUPLICATE, eliminate_redundant=True)),
        (catalog.l4, dict()),
        (catalog.l5, dict(strategy=Strategy.DUPLICATE)),
        (catalog.l5, dict(strategy=Strategy.DUPLICATE, duplicate_arrays={"B"})),
        (catalog.triangular, dict()),
        (catalog.convolution, dict(strategy=Strategy.DUPLICATE)),
    ])
    def test_all_checks_pass(self, fn, kwargs):
        check_all(build_plan(fn(), **kwargs))

    def test_cover_check_detects_duplication(self, l1):
        plan = build_plan(l1)
        # corrupt: duplicate an iteration across blocks
        from repro.core.partition import IterationBlock

        b0 = plan.blocks[0]
        plan.blocks[1] = IterationBlock(
            index=1, base_point=plan.blocks[1].base_point,
            iterations=plan.blocks[1].iterations + (b0.iterations[0],))
        with pytest.raises(AssertionError, match="two blocks"):
            check_partition_covers_space(plan)

    def test_disjoint_check_detects_sharing(self, l1):
        plan = build_plan(l1)
        from repro.core.partition import DataBlock

        shared = next(iter(plan.data_blocks["A"][0].elements))
        plan.data_blocks["A"][1] = DataBlock(
            array="A", block_index=1,
            elements=plan.data_blocks["A"][1].elements | {shared})
        with pytest.raises(AssertionError, match="non-duplicate"):
            check_data_blocks_disjoint(plan)

    def test_flow_check_detects_bad_partition(self, l1):
        # Partition L1 along (1,0): cuts the flow dependence (1,1)
        from repro.analysis import extract_references
        from repro.core.partition import (all_data_partitions,
                                          iteration_partition)
        from repro.core.plan import PartitionPlan
        from repro.core.strategy import partitioning_space
        from repro.ratlinalg import Subspace

        model = extract_references(l1)
        bad_psi = Subspace(2, [[1, 0]])
        breakdown = partitioning_space(model)
        breakdown.psi = bad_psi
        blocks = iteration_partition(model.space, bad_psi)
        plan = PartitionPlan(
            nest=l1, model=model, breakdown=breakdown, blocks=blocks,
            data_blocks=all_data_partitions(model, blocks),
        )
        with pytest.raises(AssertionError, match="crosses blocks"):
            check_no_interblock_flow(plan)

    def test_duplicate_sharing_allowed(self, l5):
        plan = build_plan(l5, Strategy.DUPLICATE)
        # B is shared across blocks but duplicated: disjointness check
        # must not complain about duplicated arrays
        check_data_blocks_disjoint(plan)
