"""Iteration and data partitions (Definitions 2-3)."""

from repro.analysis import analyze_redundancy, extract_references
from repro.core import (Strategy, build_plan, data_partition,
                        iteration_partition)
from repro.core.partition import all_data_partitions
from repro.lang import IterationSpace, catalog, parse
from repro.ratlinalg import RatVec, Subspace


class TestIterationPartition:
    def test_l1_seven_blocks(self, l1):
        space = IterationSpace(l1)
        blocks = iteration_partition(space, Subspace(2, [[1, 1]]))
        assert len(blocks) == 7
        assert [b.base_point for b in blocks] == [
            (1, 1), (1, 2), (1, 3), (1, 4), (2, 1), (3, 1), (4, 1)]
        assert [len(b) for b in blocks] == [4, 3, 2, 1, 3, 2, 1]

    def test_block_b5_matches_paper(self, l1):
        # paper: B5 = {b5 + a(1,1)}, b5 = (2,1)
        space = IterationSpace(l1)
        blocks = iteration_partition(space, Subspace(2, [[1, 1]]))
        b5 = blocks[4]
        assert b5.base_point == (2, 1)
        assert b5.iterations == ((2, 1), (3, 2), (4, 3))

    def test_zero_dim_gives_singletons(self, l1):
        space = IterationSpace(l1)
        blocks = iteration_partition(space, Subspace.zero(2))
        assert len(blocks) == 16
        assert all(len(b) == 1 for b in blocks)

    def test_full_dim_gives_single_block(self, l1):
        space = IterationSpace(l1)
        blocks = iteration_partition(space, Subspace.full(2))
        assert len(blocks) == 1 and len(blocks[0]) == 16

    def test_partition_property(self, l4):
        space = IterationSpace(l4)
        blocks = iteration_partition(space, Subspace(3, [[1, -1, 1]]))
        seen = [it for b in blocks for it in b.iterations]
        assert sorted(seen) == sorted(space.points())
        assert len(seen) == len(set(seen))

    def test_iterations_lex_sorted_within_block(self, l4):
        space = IterationSpace(l4)
        for b in iteration_partition(space, Subspace(3, [[1, -1, 1]])):
            assert list(b.iterations) == sorted(b.iterations)
            assert b.base_point == b.iterations[0]

    def test_fractional_direction(self, l2):
        # span{(1/2,1/2)} groups like span{(1,1)}
        space = IterationSpace(l2)
        from fractions import Fraction

        blocks_frac = iteration_partition(
            space, Subspace(2, [[Fraction(1, 2), Fraction(1, 2)]]))
        blocks_int = iteration_partition(space, Subspace(2, [[1, 1]]))
        assert [b.iterations for b in blocks_frac] == \
               [b.iterations for b in blocks_int]

    def test_dimension_mismatch(self, l1):
        space = IterationSpace(l1)
        try:
            iteration_partition(space, Subspace(3, [[1, 1, 1]]))
            assert False, "expected ValueError"
        except ValueError:
            pass

    def test_block_index_map(self, l1):
        plan = build_plan(l1)
        assert plan.psi == Subspace(2, [[1, 1]])
        assert plan.block_of((1, 1)) == 0 and plan.block_of((2, 2)) == 0
        assert plan.block_of((2, 1)) == 4

    def test_triangular_space(self):
        space = IterationSpace(catalog.triangular(4))
        blocks = iteration_partition(space, Subspace(2, [[1, 0]]))
        # blocks by j: j=1..4
        assert len(blocks) == 4
        assert blocks[0].iterations == ((1, 1), (2, 1), (3, 1), (4, 1))
        assert blocks[3].iterations == ((4, 4),)


class TestDataPartition:
    def test_l1_array_a_blocks(self, l1):
        model = extract_references(l1)
        blocks = iteration_partition(model.space, Subspace(2, [[1, 1]]))
        dblocks = data_partition(model, blocks, "A")
        # block 0 = diagonal (1,1)..(4,4): touches A[2i,j] and A[2i-2,j-1]
        b0 = dblocks[0].elements
        assert ("A", ) or True
        assert (2, 1) in b0 and (0, 0) in b0 and (8, 4) in b0
        # disjointness under the non-duplicate space
        all_elems = [e for db in dblocks for e in db.elements]
        assert len(all_elems) == len(set(all_elems))

    def test_element_counts_cover_accesses(self, l1):
        model = extract_references(l1)
        blocks = iteration_partition(model.space, Subspace(2, [[1, 1]]))
        for name in ("A", "B", "C"):
            dblocks = data_partition(model, blocks, name)
            info = model.arrays[name]
            accessed = {
                info.element_at(it, ref.c)
                for it in model.space.iterate() for ref in info.references
            }
            got = {e for db in dblocks for e in db.elements}
            assert got == accessed

    def test_duplicate_strategy_replicates(self, l5):
        model = extract_references(l5)
        blocks = iteration_partition(model.space, Subspace(3, [[0, 0, 1]]))
        dblocks = data_partition(model, blocks, "A")
        # every (i,j) block needs the whole row A[i, 1:M]
        counts = {}
        for db in dblocks:
            for e in db.elements:
                counts[e] = counts.get(e, 0) + 1
        m = 4
        assert all(c == m for c in counts.values())  # each element in M blocks

    def test_live_restriction(self, l3):
        model = extract_references(l3)
        red = analyze_redundancy(model)
        blocks = iteration_partition(model.space, Subspace(2, [[1, 0]]))
        unrestricted = data_partition(model, blocks, "A")
        restricted = data_partition(model, blocks, "A", live=red.live)
        for u, r in zip(unrestricted, restricted):
            assert r.elements <= u.elements
        # S1's write elements A[i,j] for j<4 are accessed only by
        # redundant computations... A[i,3] is still read by r1? A[i-1,j-1]
        # reads A[i,3] at (i+1,4) which is live (S1 live at j=4).
        # But A[i,1] for example: read at (i+1,2) by live S1? S1 at j=2 is
        # redundant; its other reader S2(i-1,3) is live. Check simply that
        # restriction dropped something overall:
        total_u = sum(len(u.elements) for u in unrestricted)
        total_r = sum(len(r.elements) for r in restricted)
        assert total_r < total_u

    def test_all_data_partitions(self, l1):
        model = extract_references(l1)
        blocks = iteration_partition(model.space, Subspace(2, [[1, 1]]))
        d = all_data_partitions(model, blocks)
        assert set(d) == {"A", "B", "C"}
        assert all(len(v) == len(blocks) for v in d.values())
