"""One flat store per run: block memories are views of it.

``run_parallel`` keeps each array once, as one flat list in the plan
layout's geometry (``repro.runtime.layout``), and a block's
``LocalMemory`` records where its elements live in it.  This file pins:

- a certified ``auto`` run never renders a region, ``allocate`` never
  walks one -- and what the run leaves behind still reads, as dicts,
  exactly like the interpreter's run;
- a rendered dict is the memory from then on: rendered before the
  engine runs, codegen does not run in place; changed after, the merge
  and the cross-check read the change;
- a pickled view is its rendered form, without the store;
- stores whose geometry is not the initial arrays' (triangular spaces,
  ranges off zero, a caller's larger or smaller arrays), with the
  numpy switch on and off;
- the same equivalence on generated nests, where negative coefficients
  and non-zero origins are what a slot formula gets wrong.
"""

import pickle

import pytest
from hypothesis import HealthCheck, given, settings

from repro.api import Session
from repro.core import Strategy, build_plan
from repro.lang import catalog
from repro.machine.memory import LocalMemory
from repro.obs.metrics import MetricsRegistry, use_registry
from repro.obs.trace import Tracer, use_tracer
from repro.runtime import DataSpace, make_arrays, merge_copies
from repro.runtime.engine import get_engine
from repro.runtime.engine.codegen.engine import CodegenEngine
from repro.runtime.layout import FlatStore, layout_for
from repro.runtime.parallel import ParallelResult, run_parallel
from repro.runtime.verify import cross_check_backends

# pytest puts this directory on sys.path (rootdir-less test modules)
from test_allocation import assert_same_memories, reference_memories
from test_engine_parity import SCALARS
from tests.strategies import PLAN_KWARGS, loop_nests

RENDERED = "runtime.memory.rendered_regions"


def interp_reference(plan, initial, scalars=SCALARS):
    """The interpreter over per-element-allocated memories: what every
    run must equal, built without the store."""
    mapping = {b.index: b.index for b in plan.blocks}
    want = ParallelResult(
        plan=plan, memories=reference_memories(plan, initial, mapping),
        block_to_pid=mapping)
    get_engine("interp").run_blocks(plan, want.memories, want, initial,
                                    scalars)
    return want


def counters(result):
    return (result.executed_iterations, result.skipped_computations,
            result.remote_accesses,
            {blk: (m.reads, m.writes, m.words())
             for blk, m in result.memories.items()})


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
    with use_registry(reg), Session(catalog.matmul(6), strategy=strategy,
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


class Unwalkable(tuple):
    """A row of the layout that fails the test if anything walks it."""

    def __iter__(self):
        raise AssertionError("allocate walked the region")


def test_allocate_does_no_per_element_work():
    elements, slots = ((0, 1), (2, 3)), (7, 9)
    mem = LocalMemory(pid=0)
    grids = {"A": [0.0] * 10}
    assert mem.allocate("A", Unwalkable(elements),
                        view=(grids, Unwalkable(slots))) == 2
    assert mem.words() == 2 and mem.is_view_of(grids)


def test_allocation_span_and_counter_say_whether_the_run_stayed_flat():
    plan = build_plan(catalog.l5(), strategy=Strategy.DUPLICATE)
    layout = layout_for(plan)
    regions = len(plan.blocks) * len(plan.data_blocks)
    for backend, rendered in (("auto", 0), ("interp", regions)):
        tracer, reg = Tracer(enabled=True), MetricsRegistry()
        with use_tracer(tracer), use_registry(reg):
            res = run_parallel(plan, scalars=SCALARS, backend=backend)
        (alloc,) = [sp for sp in tracer.spans
                    if sp.name == "runtime.allocate"]
        assert alloc.attributes["regions"] == regions
        assert alloc.attributes["words"] == layout.words == res.memory_words
        assert reg.value(RENDERED) == rendered
        in_place = [sp.attributes["in_place"] for sp in tracer.spans
                    if sp.name == "engine.codegen.exec"]
        assert in_place == ([True] if backend == "auto" else [])


# ---------------------------------------------------------------------------
# (b) rendered dicts are authoritative
# ---------------------------------------------------------------------------

def test_region_rendered_before_the_engine_runs_is_what_runs(monkeypatch):
    plan = build_plan(catalog.l5(), strategy=Strategy.DUPLICATE)
    initial = make_arrays(plan.model)
    block = plan.blocks[0].index
    victim = next(iter(plan.data_blocks["A"][block].elements))
    run_blocks = CodegenEngine.run_blocks

    def touch_first(self, plan, memories, result, initial, scalars):
        memories[block].values["A"][victim] = -123.5
        run_blocks(self, plan, memories, result, initial, scalars)

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
    get_engine("interp").run_blocks(plan, want.memories, want, initial,
                                    SCALARS)
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

    def skewed(self, plan, memories, result, initial, scalars):
        run_blocks(self, plan, memories, result, initial, scalars)
        key = next(iter(result.write_stamps))
        result.write_stamps[key] += 1

    monkeypatch.setattr(CodegenEngine, "run_blocks", skewed)
    monkeypatch.setenv("REPRO_MP_WORKERS", "1")
    report = cross_check_backends(build_plan(catalog.l1()))
    assert not report.ok
    assert any(name.startswith("<write-stamps:codegen")
               for name, _, _, _ in report.mismatches)


# ---------------------------------------------------------------------------
# (c) a pickled view is its rendered form
# ---------------------------------------------------------------------------

def test_pickled_view_round_trips_rendered_and_leaves_the_store_behind():
    plan = build_plan(catalog.matmul(8), strategy=Strategy.DUPLICATE)
    initial = make_arrays(plan.model)
    store = FlatStore(layout_for(plan), initial)
    mapping = {b.index: b.index for b in plan.blocks}
    memories = store.views(mapping)
    want = reference_memories(plan, initial, mapping)
    blob = pickle.dumps(memories[3])
    assert len(blob) < len(pickle.dumps(store.grids["A"]))
    back = pickle.loads(blob)
    assert_same_memories({3: back}, {3: want[3]})
    assert not back.is_view_of(store.grids) and back._grids is None
    # the original rendered too, and reads the same
    assert_same_memories({3: memories[3]}, {3: want[3]})
    assert store.all_views({b: m for b, m in memories.items() if b != 3})
    assert not store.all_views(memories)


# ---------------------------------------------------------------------------
# (d) store geometry != initial geometry
# ---------------------------------------------------------------------------

def _grown(arrays, by):
    """``arrays`` again over ranges ``by`` wider on every side."""
    def fn(name):
        return lambda c: len(name) + sum((j + 2) * x for j, x in
                                         enumerate(c)) / 8
    out = {}
    for name, ds in arrays.items():
        out[name] = DataSpace(name, tuple(l - by for l in ds.lo),
                              tuple(h + by for h in ds.hi)
                              ).fill_with(fn(name))
    return out


def _holes(layout, initial):
    """Some box slot belongs to no block (a triangular space)."""
    spec = layout.specs["T"]
    held = {c for _, regions in layout.rows
            for name, elements, _ in regions if name == "T" for c in elements}
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
# (e) generated nests
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
