"""The shared-memory store: geometry, round-trip parity, lifecycle.

The store is the run's flat store (``repro.runtime.layout``) copied
once into shared memory; workers run codegen's own kernel on it.  The
leak assertions snapshot ``/dev/shm`` before and after so the tests
stay correct if an outer session (another plan still alive) holds its
own segments.
"""

import errno
import pickle

import pytest

from repro.core import Strategy, build_plan
from repro.lang import catalog
from repro.obs.metrics import MetricsRegistry, use_registry
from repro.obs.trace import Tracer, use_tracer
from repro.runtime import make_arrays, merge_copies, run_parallel
from repro.runtime.blockstore import SharedBlockStore
from repro.runtime.blockstore import store as shm_store
from repro.runtime.engine.codegen.engine import program_for
from repro.runtime.layout import FlatStore, PlanLayout, layout_for
from tests.nests import matmul

SCALARS = {"D": 2.0, "F": 3.0, "G": 1.5, "K": 0.5}


def _segments():
    from pathlib import Path

    shm = Path("/dev/shm")
    if not shm.is_dir():  # pragma: no cover - non-POSIX
        return set()
    return {p.name for p in shm.iterdir() if p.name.startswith("repro-")}


def _plan():
    """Certified, partitioned writes, 36 blocks: a plan that fans out."""
    return build_plan(matmul(6), strategy=Strategy.DUPLICATE)


def _shared(plan):
    store = FlatStore(layout_for(plan), make_arrays(plan.model))
    return store, SharedBlockStore(plan, store, program_for(plan, {})["key"],
                                   {})


def _assert_matches_interp(plan, res, initial):
    golden = run_parallel(plan, initial=initial, scalars=SCALARS,
                          backend="interp")
    assert merge_copies(res, initial) == merge_copies(golden, initial)
    assert res.write_stamps == golden.write_stamps
    assert (res.executed_iterations, res.skipped_computations,
            res.reads, res.writes) == \
        (golden.executed_iterations, golden.skipped_computations,
         golden.reads, golden.writes)


class TestLayout:
    def test_layout_is_deterministic(self):
        plan = build_plan(catalog.l2(), strategy=Strategy.DUPLICATE)
        a, b = PlanLayout(plan), PlanLayout(plan)
        assert a.specs == b.specs
        assert a.words == b.words
        assert a.block_indices == b.block_indices
        assert [list(a.slot_maps(i)[n].items())
                for i in a.block_indices for n in a.specs] == \
            [list(b.slot_maps(i)[n].items())
             for i in b.block_indices for n in b.specs]

    def test_regions_tile_the_buffer_exactly(self):
        plan = _plan()
        store, shared = _shared(plan)
        try:
            end = 0
            for name, off, size in shared.desc.spans():
                assert off == end
                assert size == len(store.grids[name])
                end += size
            assert end == shared.desc.words
        finally:
            shared.close()

    def test_layout_for_caches_per_plan(self):
        plan = build_plan(catalog.l1())
        assert layout_for(plan) is layout_for(plan)


class TestSharedBlockStore:
    def test_descriptor_is_tiny(self):
        """A share's payload is segment names, the grid geometry and the
        kernel's inputs (nest, Psi, space): its size does not grow with
        the plan's blocks, where the pickled plan does (0.30 MB at
        MATMUL32)."""
        sizes = []
        for n in (8, 32):
            plan = build_plan(matmul(n), strategy=Strategy.DUPLICATE)
            _, shared = _shared(plan)
            try:
                sizes.append(len(pickle.dumps(shared.desc,
                                              pickle.HIGHEST_PROTOCOL)))
            finally:
                shared.close()
        assert max(sizes) <= 4096
        assert sizes[1] - sizes[0] < 64     # 64 -> 1 024 blocks

    def test_a_run_ships_no_plan(self, monkeypatch):
        """A multiprocess run on a fresh plan makes no segment but the
        run's two, and pickles no PartitionPlan: every share carries
        the kernel's inputs instead."""
        from repro.core.plan import PartitionPlan

        monkeypatch.setenv("REPRO_MP_WORKERS", "2")
        plan = _plan()
        kinds, pickled = [], []
        create = shm_store._create_segment

        def counting_create(kind, nbytes):
            kinds.append(kind)
            return create(kind, nbytes)

        def counting_reduce(self, protocol):
            pickled.append(self)
            return object.__reduce_ex__(self, protocol)

        monkeypatch.setattr(shm_store, "_create_segment", counting_create)
        monkeypatch.setattr(PartitionPlan, "__reduce_ex__", counting_reduce,
                            raising=False)
        reg = MetricsRegistry()
        with use_registry(reg):
            res = run_parallel(plan, scalars=SCALARS,
                               backend="multiprocess")
        assert res.ok and reg.value("engine.multiproc.degraded") == 0
        assert kinds == ["val", "stp"]
        assert pickled == []

    def test_close_unlinks_run_segments(self):
        before = _segments()
        plan = _plan()
        _, shared = _shared(plan)
        # values + stamps
        assert len(_segments() - before) == 2
        shared.close()
        shared.close()  # idempotent
        assert _segments() - before == set()

    def test_multiprocess_run_leaves_no_segments(self, monkeypatch):
        monkeypatch.setenv("REPRO_MP_WORKERS", "2")
        before = _segments()
        plan = _plan()
        initial = make_arrays(plan.model)
        reg = MetricsRegistry()
        with use_registry(reg):
            res = run_parallel(plan, initial=initial, scalars=SCALARS,
                               backend="multiprocess")
        assert res.ok and reg.value("engine.multiproc.degraded") == 0
        assert reg.value("engine.shm.stores") == 1
        assert _segments() - before == set()

    def test_store_run_matches_in_process_codegen_run(self, monkeypatch):
        """The workers' kernel calls, collected, leave the run's store
        as one in-process codegen run leaves it."""
        monkeypatch.setenv("REPRO_MP_WORKERS", "2")
        plan = _plan()
        initial = make_arrays(plan.model)
        res_cg = run_parallel(plan, initial=initial, scalars=SCALARS,
                              backend="codegen")
        res_mp = run_parallel(plan, initial=initial, scalars=SCALARS,
                              backend="multiprocess")
        assert res_mp.store.grids == res_cg.store.grids
        assert res_mp.store.stamps == res_cg.store.stamps
        assert res_mp.executed_iterations == res_cg.executed_iterations
        _assert_matches_interp(plan, res_mp, initial)

    def test_more_workers_than_cores_publish_disjoint_slots(self,
                                                            monkeypatch):
        """Workers race on the shared buffers, each having copied them
        whenever it started: a slot published by the wrong block, or a
        read of a slot another share writes, would break
        bit-identity."""
        import os

        monkeypatch.setenv("REPRO_MP_WORKERS",
                           str(2 * (os.cpu_count() or 1) + 1))
        plan = _plan()
        initial = make_arrays(plan.model)
        reg = MetricsRegistry()
        with use_registry(reg):
            res = run_parallel(plan, initial=initial, scalars=SCALARS,
                               backend="multiprocess")
        assert reg.value("engine.worker.chunks") > 2
        _assert_matches_interp(plan, res, initial)

    @pytest.mark.parametrize("kind", ["val", "stp"])
    def test_a_store_that_fails_half_way_leaks_nothing(self, kind,
                                                       monkeypatch, capsys):
        """Creating the store is all-or-nothing: whichever segment
        cannot be made, the ones made before it are unlinked and the run
        degrades, loudly, to codegen in process."""
        monkeypatch.setenv("REPRO_MP_WORKERS", "2")
        create = shm_store._create_segment

        def full(what, nbytes):
            if what == kind:
                raise OSError(errno.ENOSPC, "No space left on device")
            return create(what, nbytes)

        monkeypatch.setattr(shm_store, "_create_segment", full)
        before = _segments()
        plan = _plan()
        initial = make_arrays(plan.model)
        reg = MetricsRegistry()
        with use_registry(reg):
            res = run_parallel(plan, initial=initial, scalars=SCALARS,
                               backend="multiprocess")
        assert _segments() - before == set()
        assert reg.value("engine.multiproc.degraded") == 1
        assert reg.value("engine.shm.stores") == 0
        assert reg.value("engine.codegen.runs") == 1
        assert "degrading to the codegen tier" in capsys.readouterr().err
        assert res.ok
        _assert_matches_interp(plan, res, initial)

    def test_numpy_free_run_shares_codegens_kernel(self, monkeypatch,
                                                   no_numpy):
        """Without numpy the store is the same store: memoryviews over
        the segments, the workers on codegen's own kernel key."""
        monkeypatch.setenv("REPRO_MP_WORKERS", "2")
        plan = build_plan(catalog.l1())
        initial = make_arrays(plan.model)
        reg, tracer = MetricsRegistry(), Tracer(enabled=True)
        with use_registry(reg), use_tracer(tracer):
            res = run_parallel(plan, initial=initial,
                               backend="multiprocess")
        assert reg.value("engine.shm.stores") == 1
        keys = {s.attributes["key"] for s in tracer.spans
                if s.name == "engine.codegen.exec" and s.pid is not None}
        assert keys == {program_for(plan, {})["key"]}
        _assert_matches_interp(plan, res, initial)


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


class TestUnleasedPlans:
    def test_replicated_writes_run_down_codegens_chain(self):
        """Written replicas keep codegen off the store, and so the pool
        off the plan: the interpreter runs it, in process."""
        plan = build_plan(catalog.l2(), strategy=Strategy.DUPLICATE)
        initial = make_arrays(plan.model)
        reg = MetricsRegistry()
        with use_registry(reg):
            res = run_parallel(plan, initial=initial, scalars=SCALARS,
                               backend="multiprocess")
        assert res.backend == "multiprocess"
        assert reg.value("engine.codegen.delegated") == 1
        assert reg.value("engine.pool.spawns") == 0
        assert reg.value("engine.shm.stores") == 0
        _assert_matches_interp(plan, res, initial)
