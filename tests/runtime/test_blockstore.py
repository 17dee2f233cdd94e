"""The shared-memory block store: layout, round-trip parity, lifecycle.

The leak assertions snapshot ``/dev/shm`` before and after so the tests
stay correct if an outer session (another plan still alive) holds its
own segments.
"""

import pickle

import pytest

from repro.core import Strategy, build_plan
from repro.lang import catalog
from repro.machine.memory import LocalMemory
from repro.obs.metrics import MetricsRegistry, use_registry
from repro.runtime import make_arrays, merge_copies, run_parallel
from repro.runtime.blockstore import (
    SharedBlockStore,
    layout_for,
    release_plan_segment,
    shm_available,
)
from repro.runtime.blockstore.layout import build_layout

SCALARS = {"D": 2.0, "F": 3.0, "G": 1.5, "K": 0.5}

needs_shm = pytest.mark.skipif(
    not shm_available(), reason="shared memory store unavailable")


def _segments():
    from pathlib import Path

    shm = Path("/dev/shm")
    if not shm.is_dir():  # pragma: no cover - non-POSIX
        return set()
    return {p.name for p in shm.iterdir() if p.name.startswith("repro-")}


def _alloc(plan, initial):
    memories = {}
    for b in plan.blocks:
        mem = LocalMemory(pid=b.index, strict=True)
        for name, dblocks in plan.data_blocks.items():
            src = initial[name]
            mem.allocate(name, dblocks[b.index].elements,
                         init=lambda c, s=src: s[c])
        memories[b.index] = mem
    return memories


class TestLayout:
    def test_layout_is_deterministic(self):
        plan = build_plan(catalog.l2(), strategy=Strategy.DUPLICATE)
        a, b = build_layout(plan), build_layout(plan)
        assert a.regions == b.regions
        assert a.order == b.order
        assert a.total_words == b.total_words

    def test_canonical_element_order_is_sorted(self):
        # frozenset iteration order varies across processes (hash
        # randomization); the layout must not depend on it
        plan = build_plan(catalog.l2(), strategy=Strategy.DUPLICATE)
        layout = build_layout(plan)
        for key, order in layout.order.items():
            assert list(order) == sorted(order), key

    def test_regions_tile_the_buffer_exactly(self):
        plan = build_plan(catalog.l2(), strategy=Strategy.DUPLICATE)
        layout = build_layout(plan)
        spans = sorted(layout.regions.values())
        end = 0
        for off, cnt in spans:
            assert off == end
            end += cnt
        assert end == layout.total_words

    def test_layout_for_caches_per_plan(self):
        plan = build_plan(catalog.l1())
        assert layout_for(plan) is layout_for(plan)


@needs_shm
class TestSharedBlockStore:
    def test_descriptor_is_tiny(self):
        plan = build_plan(catalog.l2(), strategy=Strategy.DUPLICATE)
        initial = make_arrays(plan.model)
        store = SharedBlockStore(plan, _alloc(plan, initial))
        try:
            desc = store.descriptor()
            # the whole point: a lease payload of segment names, not a
            # multi-KB plan + memories pickle
            assert len(pickle.dumps(desc)) < 512
        finally:
            store.close()
            release_plan_segment(plan)

    def test_close_unlinks_run_segments(self):
        before = _segments()
        plan = build_plan(catalog.l2(), strategy=Strategy.DUPLICATE)
        initial = make_arrays(plan.model)
        store = SharedBlockStore(plan, _alloc(plan, initial))
        # plan + seed + values + stamps + control
        assert len(_segments() - before) == 5
        store.close()
        store.close()  # idempotent
        leftover = _segments() - before
        # only the plan segment survives (cached for the next run)
        assert len(leftover) == 1 and next(iter(leftover)).startswith(
            "repro-plan-")
        release_plan_segment(plan)
        release_plan_segment(plan)  # idempotent
        assert _segments() - before == set()

    def test_multiprocess_run_leaves_no_segments(self, monkeypatch):
        monkeypatch.setenv("REPRO_MP_WORKERS", "2")
        before = _segments()
        plan = build_plan(catalog.l2(), strategy=Strategy.DUPLICATE)
        initial = make_arrays(plan.model)
        reg = MetricsRegistry()
        with use_registry(reg):
            res = run_parallel(plan, initial=initial, scalars=SCALARS,
                               backend="multiprocess")
        assert res.ok
        assert reg.value("engine.shm.stores") == 1
        leftover = _segments() - before
        assert all(n.startswith("repro-plan-") for n in leftover)
        release_plan_segment(plan)
        assert _segments() - before == set()

    def test_store_run_matches_by_value_run(self, monkeypatch):
        monkeypatch.setenv("REPRO_MP_WORKERS", "2")
        plan = build_plan(catalog.l2(), strategy=Strategy.DUPLICATE)
        initial = make_arrays(plan.model)

        res_shm = run_parallel(plan, initial=initial, scalars=SCALARS,
                               backend="multiprocess")
        merged_shm = merge_copies(res_shm, initial)

        monkeypatch.setenv("REPRO_NO_SHM", "1")
        reg = MetricsRegistry()
        with use_registry(reg):
            res_val = run_parallel(plan, initial=initial, scalars=SCALARS,
                                   backend="multiprocess")
        merged_val = merge_copies(res_val, initial)
        assert reg.value("engine.shm.stores") == 0

        assert res_shm.write_stamps == res_val.write_stamps
        assert res_shm.executed_iterations == res_val.executed_iterations
        for name in merged_val:
            assert merged_shm[name] == merged_val[name], name
        release_plan_segment(plan)

    def test_chaos_run_leaves_no_segments(self, monkeypatch):
        monkeypatch.setenv("REPRO_MP_WORKERS", "2")
        before = _segments()
        plan = build_plan(catalog.l2(), strategy=Strategy.DUPLICATE)
        initial = make_arrays(plan.model)
        res = run_parallel(plan, initial=initial, scalars=SCALARS,
                           backend="multiprocess",
                           chaos="crash-prob=0.3,seed=1")
        assert res.ok and res.scheduler.ok
        release_plan_segment(plan)
        assert _segments() - before == set()


class TestSingleBlockFastPath:
    def test_single_block_runs_in_process(self):
        plan = build_plan(catalog.l3(), eliminate_redundant=True)
        assert len(plan.blocks) == 1
        initial = make_arrays(plan.model)
        reg = MetricsRegistry()
        with use_registry(reg):
            res = run_parallel(plan, initial=initial,
                               backend="multiprocess")
        assert res.ok
        assert res.backend == "multiprocess"
        # counted as the expected fast path, not a degradation
        assert reg.value("engine.multiproc.single_block") == 1
        assert reg.value("engine.multiproc.degraded") == 0
        # no pool, no store
        assert reg.value("engine.pool.spawns") == 0
        assert reg.value("engine.shm.stores") == 0
