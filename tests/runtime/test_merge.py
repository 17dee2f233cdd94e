"""Last-writer merge of replicated copies."""

import pytest

from repro.core import Strategy, build_plan
from repro.lang import catalog, parse
from repro.runtime import make_arrays, merge_copies, run_parallel, run_sequential


def merged_result(nest, **plan_kwargs):
    plan = build_plan(nest, **plan_kwargs)
    initial = make_arrays(plan.model)
    res = run_parallel(plan, initial=initial)
    return plan, initial, merge_copies(res, initial)


class TestMerge:
    def test_unwritten_elements_keep_initial(self, l1):
        plan, initial, merged = merged_result(l1)
        # A[0,0] is only ever read
        assert merged["A"][(0, 0)] == initial["A"][(0, 0)]

    def test_written_elements_updated(self, l1):
        plan, initial, merged = merged_result(l1)
        expected = {n: a.copy() for n, a in initial.items()}
        run_sequential(l1, expected)
        for name in merged:
            assert merged[name] == expected[name]

    def test_output_dependence_order_respected(self):
        """Two blocks write the same element; the later (sequential)
        writer must win in the merge."""
        # L2 duplicate: A[i+j,i+j] written by every iteration on the
        # same anti-diagonal, each its own block.
        nest = catalog.l2()
        plan, initial, merged = merged_result(nest, strategy=Strategy.DUPLICATE)
        expected = {n: a.copy() for n, a in initial.items()}
        run_sequential(nest, expected)
        assert merged["A"] == expected["A"]
        assert merged["B"] == expected["B"]

    def test_merge_with_redundancy_elimination(self, l3):
        plan, initial, merged = merged_result(
            l3, strategy=Strategy.DUPLICATE, eliminate_redundant=True)
        expected = {n: a.copy() for n, a in initial.items()}
        run_sequential(l3, expected)
        assert merged["A"] == expected["A"]

    def test_merge_does_not_mutate_inputs(self, l1):
        plan = build_plan(l1)
        initial = make_arrays(plan.model)
        snapshot = {n: a.copy() for n, a in initial.items()}
        res = run_parallel(plan, initial=initial)
        merge_copies(res, initial)
        for name in initial:
            assert initial[name] == snapshot[name]


class TestTieBreaking:
    """Write stamps are globally unique in real runs; on (synthetic)
    equal stamps the first entry seen wins."""

    def _fixture(self):
        from types import SimpleNamespace

        from repro.runtime import DataSpace
        from repro.runtime.parallel import ParallelResult

        initial = {"A": DataSpace("A", (0,), (3,), fill=0.0)}
        memories = {
            0: SimpleNamespace(values={"A": {(1,): 5.0}}),
            1: SimpleNamespace(values={"A": {(1,): 9.0}}),
        }
        result = ParallelResult(plan=None, memories=memories,
                                block_to_pid={0: 0, 1: 1})
        return initial, result

    def test_dict_path_keeps_first_seen_on_equal_stamps(self):
        initial, result = self._fixture()
        result.write_stamps = {(0, "A", (1,)): 7, (1, "A", (1,)): 7}
        merged = merge_copies(result, initial)
        assert merged["A"][(1,)] == 5.0

    def test_dict_path_higher_stamp_still_wins(self):
        initial, result = self._fixture()
        result.write_stamps = {(0, "A", (1,)): 7, (1, "A", (1,)): 8}
        merged = merge_copies(result, initial)
        assert merged["A"][(1,)] == 9.0


class TestStoreRunMerge:
    @pytest.mark.parametrize("no_shm", [False, True], ids=["shm", "by-value"])
    def test_multiprocess_merge_is_bit_identical_to_interp(self, no_shm,
                                                           monkeypatch):
        """Stamps and values a shared-memory store run collects (or a
        by-value run ships home) merge to the interpreter's arrays."""
        from repro.runtime.blockstore import release_plan_segment

        monkeypatch.setenv("REPRO_MP_WORKERS", "2")
        if no_shm:
            monkeypatch.setenv("REPRO_NO_SHM", "1")
        plan = build_plan(catalog.l2(), strategy=Strategy.DUPLICATE)
        initial = make_arrays(plan.model)
        golden = run_parallel(plan, initial=initial, backend="interp")
        res = run_parallel(plan, initial=initial, backend="multiprocess")
        assert res.backend == "multiprocess"
        assert res.write_stamps == golden.write_stamps
        want = merge_copies(golden, initial)
        got = merge_copies(res, initial)
        for name in want:
            assert got[name] == want[name], name
        release_plan_segment(plan)
