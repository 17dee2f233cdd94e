"""One flat store per run: block memories are views of it.

``run_parallel`` keeps each array once, as one flat list in the plan
layout's geometry (``repro.runtime.layout``), and a block's
``LocalMemory`` records where its elements live in it.  This file pins:

- a certified ``auto`` run never renders a region, ``allocate`` never
  walks one -- and what the run leaves behind still reads, as dicts,
  exactly like the interpreter's run;
- nor does it build a block's memory until one is read, and the
  counters are the run's: reading the memories afterwards moves none;
- a rendered dict is the memory from then on: rendered before the
  engine runs, codegen does not run in place; changed after, the merge
  and the cross-check read the change;
- stores whose geometry is not the initial arrays' (triangular spaces,
  ranges off zero, a caller's larger or smaller arrays), with numpy
  importable and not;
- the same equivalence on generated nests, where negative coefficients
  and non-zero origins are what a slot formula gets wrong -- for
  ``auto`` and for ``multiprocess``, which shares the store with its
  workers.
"""

import errno
from contextlib import contextmanager
from dataclasses import replace
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api import Session
from repro.core import Strategy, build_plan
from repro.lang import catalog
from repro.machine.memory import LocalMemory, RemoteAccessError
from repro.obs.audit import inject_violation
from repro.obs.metrics import MetricsRegistry, use_registry
from repro.obs.trace import Tracer, use_tracer
from repro.runtime import DataSpace, make_arrays, merge_copies
from repro.runtime.engine import get_engine
from repro.runtime.engine.codegen.engine import CodegenEngine
from repro.runtime.layout import layout_for
from repro.runtime.parallel import ParallelResult, run_parallel
from repro.runtime.verify import cross_check_backends

# pytest puts this directory on sys.path (rootdir-less test modules)
from test_allocation import assert_same_memories, reference_memories
from test_engine_parity import SCALARS
from tests.arrays_oracle import fill
from tests.nests import matmul
from tests.strategies import PLAN_KWARGS, loop_nests

RENDERED = "runtime.memory.rendered_regions"
BLOCK_VIEWS = "runtime.memory.block_views"


def interp_reference(plan, initial, scalars=SCALARS, strict=True):
    """The interpreter over per-element-allocated memories: what every
    run must equal, built without the store."""
    mapping = {b.index: b.index for b in plan.blocks}
    want = ParallelResult(
        plan=plan, memories=reference_memories(plan, initial, mapping),
        block_to_pid=mapping, strict=strict)
    get_engine("interp").run_blocks(plan, want, scalars)
    return want


def counters(result):
    return (run_totals(result),
            {blk: m.words() for blk, m in result.memories.items()})


def assert_same_run(got, want, initial):
    """Merge first: it must not need the dicts the later asserts render."""
    assert merge_copies(got, initial) == merge_copies(want, initial)
    assert got.memory_words == want.memory_words
    assert counters(got) == counters(want)
    assert got.write_stamps == want.write_stamps
    assert_same_memories(got.memories, want.memories)
    # rendering changed nothing the merge reads
    assert merge_copies(got, initial) == merge_copies(want, initial)


# ---------------------------------------------------------------------------
# (a) a certified run stays flat, and still reads like the interpreter's
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("strategy", ["duplicate", "nonduplicate"])
def test_auto_run_renders_nothing_and_reads_like_interp(strategy):
    reg = MetricsRegistry()  # also in scope once the run is over
    with use_registry(reg), Session(matmul(6), strategy=strategy,
                                    registry=reg) as s:
        got = s.run(backend="auto")
        assert got.backend == "codegen" and got.ok
        assert got.memory_words == sum(
            len(db) for dbs in s.plan().data_blocks.values() for db in dbs)
        initial = make_arrays(s.plan().model)      # equal, not the same
        merged = merge_copies(got, initial)
        assert reg.value(RENDERED) == 0
        assert got.store.all_views(got.memories)
        want = interp_reference(s.plan(), initial, scalars={})
        assert merged == merge_copies(want, initial)
        assert_same_run(got, want, initial)
        regions = len(s.plan().blocks) * len(s.plan().data_blocks)
        assert reg.value(RENDERED) == regions


@contextmanager
def constructed():
    """-> the pid of every ``LocalMemory`` constructed in the block."""
    pids = []
    init = LocalMemory.__init__

    def counting(self, pid, *args, **kwargs):
        pids.append(pid)
        init(self, pid, *args, **kwargs)

    with mock.patch.object(LocalMemory, "__init__", counting):
        yield pids


def run_totals(result):
    return (result.executed_iterations, result.skipped_computations,
            result.reads, result.writes, result.remote_reads,
            result.remote_writes)


def assert_nothing_per_block(plan, backend):
    """A run of ``plan`` on ``backend``, its verdict and its merge
    build no block memory when the run stayed on its store; its
    counters are the interpreter's either way, and building the
    memories moves none of them."""
    initial = make_arrays(plan.model)
    reg = MetricsRegistry()
    with use_registry(reg), constructed() as pids:
        got = run_parallel(plan, initial=initial, scalars=SCALARS,
                           backend=backend)
        assert got.ok
        merged = merge_copies(got, initial)
    if reg.value("engine.codegen.runs") or reg.value("engine.shm.stores"):
        # the one memory of the run: the store's own
        assert pids == [-1]
        assert reg.value(BLOCK_VIEWS) == 0
        assert got.memories.built is None
    want = interp_reference(plan, initial)
    assert merged == merge_copies(want, initial)
    assert run_totals(got) == run_totals(want)
    assert counters(got) == counters(want)          # builds them
    assert run_totals(got) == run_totals(want)      # moved nothing


@pytest.mark.parametrize("backend", ["auto", "multiprocess"])
def test_certified_run_builds_no_block_memory_until_one_is_read(
        backend, monkeypatch):
    monkeypatch.setenv("REPRO_MP_WORKERS", "2")
    plan = build_plan(matmul(8), strategy=Strategy.DUPLICATE)
    assert_nothing_per_block(plan, backend)


@given(loop_nests())
@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_generated_runs_build_no_block_memory_until_one_is_read(nest):
    """``auto``, and ``multiprocess`` run in process (no shared memory
    to be had: it degrades to codegen), on every plan shape, live masks
    included."""
    from repro.runtime.blockstore import store as shm_store

    def full(kind, nbytes):
        raise OSError(errno.ENOSPC, "No space left on device")

    with mock.patch.object(shm_store, "_create_segment", full), \
            mock.patch.dict("os.environ", {"REPRO_MP_WORKERS": "2"}):
        for kwargs in PLAN_KWARGS:
            plan = build_plan(nest, **kwargs)
            for backend in ("auto", "multiprocess"):
                assert_nothing_per_block(plan, backend)


def everything_counted(result):
    return result.to_json(), result.reads, result.writes


@pytest.mark.parametrize("backend,strict", [
    ("auto", True), ("interp", True), ("interp", False)])
def test_counters_do_not_move_when_memories_are_read(backend, strict):
    """The counters are the run's: rendering every block's memory after
    a certified in-place run, an interpreter run, or a tolerated
    sabotaged one changes none of them.  All three ran on the store in
    place (no written replica), so none built a block memory."""
    plan = build_plan(matmul(6), strategy=Strategy.DUPLICATE)
    if not strict:
        plan = inject_violation(plan)
    got = run_parallel(plan, scalars=SCALARS, backend=backend,
                       strict=strict)
    assert got.backend == ("codegen" if backend == "auto" else "interp")
    assert got.memories.built is None
    assert got.ok == strict         # the sabotaged run counted its misses
    before = everything_counted(got)
    for blk in got.memories:
        assert got.memories[blk].values
    assert got.memories.built is not None
    assert everything_counted(got) == before


def test_allocate_does_no_per_element_work():
    built = []

    def rows(array):
        built.append(array)
        return {(0, 1): 7, (2, 3): 9}

    mem = LocalMemory(pid=0)
    grids = {"A": [0.0] * 10}
    assert mem.allocate("A", rows, view=grids) == 0
    assert not built, "allocate built the region's row"
    assert mem.words() == 2 and mem.is_view_of(grids)


def test_a_dropped_plan_is_collected():
    """Nothing derived from a plan -- its layout and rendered rows, its
    verdict, codegen's geometry -- keeps it alive once it is dropped."""
    import gc
    import weakref

    from repro.obs.audit import audit_plan

    plan = build_plan(matmul(4), strategy=Strategy.DUPLICATE,
                      use_cache=False)
    for backend in ("codegen", "interp"):
        assert run_parallel(plan, scalars=SCALARS, backend=backend).ok
    assert audit_plan(plan, scalars=SCALARS).certified
    dropped = weakref.ref(plan)
    del plan
    gc.collect()
    assert dropped() is None


def test_plan_and_verify_build_no_element_set(image_calls):
    """From source text through ``plan()`` and ``verify(backend="auto")``
    no data block is enumerated."""
    source = """
    for i = 1 to 4 { for j = 1 to 4 { for k = 1 to 4 {
      S1: C[i, j] = C[i, j] + A[i, k] * B[k, j];
    } } }
    """
    with Session(source, strategy="duplicate") as s:
        plan = s.plan()
        assert s.verify(backend="auto").ok
        assert not any("elements" in vars(db)
                       for dblocks in plan.data_blocks.values()
                       for db in dblocks)
    assert image_calls == []


def test_allocation_span_and_counter_say_whether_the_run_stayed_flat():
    """``interp``, like ``auto``, renders no region on L5-duplicate: no
    written array is replicated, so it reads and writes every array
    straight from the store, and the merge takes the flat path."""
    plan = build_plan(catalog.l5(), strategy=Strategy.DUPLICATE)
    layout = layout_for(plan)
    initial = make_arrays(plan.model)
    regions = len(plan.blocks) * len(plan.data_blocks)
    assert layout.written == ("C",) and not layout.replicated
    for backend, rendered in (("auto", 0), ("interp", 0)):
        tracer, reg = Tracer(enabled=True), MetricsRegistry()
        with use_tracer(tracer), use_registry(reg):
            res = run_parallel(plan, initial=initial, scalars=SCALARS,
                               backend=backend)
        (alloc,) = [sp for sp in tracer.spans
                    if sp.name == "runtime.allocate"]
        assert alloc.attributes["regions"] == regions
        assert alloc.attributes["words"] == layout.words == res.memory_words
        assert reg.value(RENDERED) == rendered
        with use_registry(reg):
            merge_copies(res, initial)
        assert reg.value(RENDERED) == rendered
        in_place = [sp.attributes["in_place"] for sp in tracer.spans
                    if sp.name == "engine.codegen.exec"]
        assert in_place == ([True] if backend == "auto" else [])


def _stolen_read():
    """MATMUL4-duplicate without the element of ``A`` its first block
    reads first: the first miss is a read of an array no statement
    writes, which the store path reads straight from the store."""
    plan = build_plan(matmul(4), strategy=Strategy.DUPLICATE)
    block, info = plan.blocks[0], plan.model.arrays["A"]
    element = info.element_at(block.iterations[0], info.references[0].c)
    dblocks = list(plan.data_blocks["A"])
    dblocks[block.index] = replace(
        dblocks[block.index],
        elements=dblocks[block.index].elements - {element})
    return replace(plan, data_blocks={**plan.data_blocks, "A": dblocks})


SABOTAGED = {
    "L1-duplicate": lambda: inject_violation(
        build_plan(catalog.l1(), strategy=Strategy.DUPLICATE)),
    "MATMUL4-duplicate": lambda: inject_violation(
        build_plan(matmul(4), strategy=Strategy.DUPLICATE)),
    "unwritten-read": _stolen_read,
}


def _first_miss(run):
    with pytest.raises(RemoteAccessError) as exc:
        run()
    e = exc.value
    return e.pid, e.array, e.coords, e.is_write


@pytest.mark.parametrize("case", sorted(SABOTAGED))
def test_the_store_path_misses_where_the_dict_path_does(case):
    """``interp`` on a run's store in place (every array read and
    written through the lists, nothing rendered) against ``interp`` on
    hand-built dicts (``store=None``): the same first miss in a strict
    run, the same counts and merged arrays in a tolerant one."""
    plan = SABOTAGED[case]()
    initial = make_arrays(plan.model)
    layout = layout_for(plan)
    dicts = interp_reference(plan, initial, strict=False)
    first = _first_miss(lambda: interp_reference(plan, initial))
    assert _first_miss(lambda: run_parallel(
        plan, initial=initial, scalars=SCALARS, backend="interp")) == first
    if case == "unwritten-read":
        assert first[1::2] == ("A", False) and "A" not in layout.written
    reg = MetricsRegistry()
    with use_registry(reg):
        got = run_parallel(plan, initial=initial, scalars=SCALARS,
                           backend="interp", strict=False)
        # the store path ran in place: no region rendered, none built
        assert reg.value(RENDERED) == 0 and got.memories.built is None
        assert merge_copies(got, initial) == merge_copies(dicts, initial)
    assert (got.reads, got.writes, got.remote_reads, got.remote_writes) == \
        (dicts.reads, dicts.writes, dicts.remote_reads, dicts.remote_writes)
    assert got.remote_accesses > 0


# ---------------------------------------------------------------------------
# (b) rendered dicts are authoritative
# ---------------------------------------------------------------------------

def test_region_rendered_before_the_engine_runs_is_what_runs(monkeypatch):
    plan = build_plan(catalog.l5(), strategy=Strategy.DUPLICATE)
    initial = make_arrays(plan.model)
    block = plan.blocks[0].index
    victim = next(iter(plan.data_blocks["A"][block].elements))
    run_blocks = CodegenEngine.run_blocks

    def touch_first(self, plan, result, scalars):
        result.memories[block].values["A"][victim] = -123.5
        run_blocks(self, plan, result, scalars)

    monkeypatch.setattr(CodegenEngine, "run_blocks", touch_first)
    tracer, reg = Tracer(enabled=True), MetricsRegistry()
    with use_tracer(tracer), use_registry(reg):
        got = run_parallel(plan, initial=initial, scalars=SCALARS,
                           backend="codegen")
    # not in place, and not through a second seeding path: down the chain
    assert reg.value("engine.codegen.delegated") == 1
    assert reg.value("engine.codegen.runs") == 0
    assert [e.attributes["reason"] for e in tracer.events
            if e.name == "engine.codegen.delegated"] == ["memories-not-flat"]
    assert got.store.stamps is None

    mapping = {b.index: b.index for b in plan.blocks}
    want = ParallelResult(
        plan=plan, memories=reference_memories(plan, initial, mapping),
        block_to_pid=mapping)
    want.memories[block].values["A"][victim] = -123.5
    get_engine("interp").run_blocks(plan, want, SCALARS)
    assert_same_run(got, want, initial)
    # the change was read: block 0's C differs from an untouched run
    clean = run_parallel(plan, initial=initial, scalars=SCALARS,
                         backend="interp")
    assert got.memories[block].values["C"] != clean.memories[block].values["C"]


def test_dicts_changed_after_the_run_are_what_the_merge_reads():
    plan = build_plan(catalog.l5(), strategy=Strategy.DUPLICATE)
    initial = make_arrays(plan.model)
    got = run_parallel(plan, initial=initial, scalars=SCALARS,
                       backend="auto")
    clean = merge_copies(got, initial)
    (block, array, coords), stamp = next(iter(got.write_stamps.items()))
    # the stamps alone rendered; the values still come off the store
    assert got.store.stamps is None
    assert got.store.all_views(got.memories)
    assert merge_copies(got, initial) == clean
    got.memories[block].values[array][coords] = -7.25
    changed = merge_copies(got, initial)
    assert changed[array][coords] == -7.25
    changed[array][coords] = clean[array][coords]
    assert changed == clean
    # a stamp moved by hand is the stamp there is
    got.write_stamps[(block, array, coords)] = stamp + 1
    assert got.write_stamps[(block, array, coords)] == stamp + 1


def test_skewed_stamps_of_an_in_place_run_fail_the_cross_check(monkeypatch):
    run_blocks = CodegenEngine.run_blocks

    def skewed(self, plan, result, scalars):
        run_blocks(self, plan, result, scalars)
        key = next(iter(result.write_stamps))
        result.write_stamps[key] += 1

    monkeypatch.setattr(CodegenEngine, "run_blocks", skewed)
    monkeypatch.setenv("REPRO_MP_WORKERS", "1")
    report = cross_check_backends(build_plan(catalog.l1()))
    assert not report.ok
    assert any(name.startswith("<write-stamps:codegen")
               for name, _, _, _ in report.mismatches)


# ---------------------------------------------------------------------------
# (c) store geometry != initial geometry
# ---------------------------------------------------------------------------

def _grown(arrays, by):
    """``arrays`` again over ranges ``by`` wider on every side."""
    def fn(name):
        return lambda c: len(name) + sum((j + 2) * x for j, x in
                                         enumerate(c)) / 8
    out = {}
    for name, ds in arrays.items():
        out[name] = fill(DataSpace(name, tuple(l - by for l in ds.lo),
                                   tuple(h + by for h in ds.hi)), fn(name))
    return out


def _holes(layout, initial):
    """Some box slot belongs to no block (a triangular space)."""
    spec = layout.specs["T"]
    held = {c for j in layout.block_indices
            for c in layout.slot_maps(j)["T"]}
    return len(held) < spec.size


def _off_zero(layout, initial):
    return layout.specs["B"].lo == (1, 2)          # L1's B[1:4, 2:5]


def _inside(layout, initial):
    return all(initial[n].lo < spec.lo for n, spec in layout.specs.items())


#: (case, nest, plan options, how much wider the caller's arrays are,
#: what makes the store's geometry differ from the arrays')
GEOMETRIES = [
    ("TRI", catalog.triangular, dict(), 0, _holes),
    ("L1", catalog.l1, dict(), 0, _off_zero),
    ("L1-dup", catalog.l1, dict(strategy=Strategy.DUPLICATE), 0, _off_zero),
    ("L1-larger-initial", catalog.l1, dict(), 2, _inside),
    ("L4-larger-initial", catalog.l4, dict(strategy=Strategy.DUPLICATE), 3,
     _inside),
]


@pytest.mark.parametrize("name,fn,kwargs,grow,differs", GEOMETRIES,
                         ids=[g[0] for g in GEOMETRIES])
def test_store_geometry_is_not_the_initial_geometry(name, fn, kwargs, grow,
                                                    differs, backing):
    plan = build_plan(fn(), **kwargs)
    initial = _grown(make_arrays(plan.model), grow)
    assert differs(layout_for(plan), initial), "the case lost its point"
    want = interp_reference(plan, initial)
    for backend in ("auto", "interp"):
        got = run_parallel(plan, initial=initial, scalars=SCALARS,
                           backend=backend)
        assert_same_run(got, want, initial)


def test_initial_smaller_than_the_footprint_names_the_array(backing):
    plan = build_plan(catalog.l1(), strategy=Strategy.DUPLICATE)
    initial = make_arrays(plan.model)
    b = initial["B"]
    assert b.lo == (1, 2)
    initial["B"] = DataSpace("B", tuple(l + 1 for l in b.lo), b.hi)
    for backend in ("auto", "interp"):
        with pytest.raises(IndexError, match="B"):
            run_parallel(plan, initial=initial, backend=backend)


# ---------------------------------------------------------------------------
# (d) generated nests
# ---------------------------------------------------------------------------

@given(loop_nests())
@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_auto_equals_interp_on_generated_nests(nest):
    for kwargs in PLAN_KWARGS:
        plan = build_plan(nest, **kwargs)
        initial = make_arrays(plan.model)
        want = interp_reference(plan, initial)
        got = run_parallel(plan, initial=initial, scalars=SCALARS,
                           backend="auto")
        assert_same_run(got, want, initial)


@given(loop_nests(), st.integers(1, 3))
@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_multiprocess_equals_interp_on_generated_nests(nest, workers):
    """Fanned out or sent down codegen's chain, on one to three
    workers, a multiprocess run is the interpreter's: values, stamps,
    counters, zero remote accesses."""
    from unittest import mock

    from repro.runtime.pool import WorkerPool, use_pool

    pool = WorkerPool("generated-nests")
    with mock.patch.dict("os.environ", {"REPRO_MP_WORKERS": str(workers)}), \
            use_pool(pool):
        try:
            for kwargs in PLAN_KWARGS:
                plan = build_plan(nest, **kwargs)
                initial = make_arrays(plan.model)
                want = interp_reference(plan, initial)
                got = run_parallel(plan, initial=initial, scalars=SCALARS,
                                   backend="multiprocess")
                assert_same_run(got, want, initial)
        finally:
            pool.shutdown()

