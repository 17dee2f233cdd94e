"""Bulk allocation builds the very memories the per-element form does.

``run_parallel`` makes each block's private region a view of one flat
store (``LocalMemory(pid, view=(grids, rows))``), rendered
as dicts when first read.  The per-element callable form of
``allocate`` -- ``init=lambda c: initial[name][c]``, through
``DataSpace.__getitem__`` and ``int()`` per coordinate -- stays in the
tests as the reference: the two must agree object for object, on every
catalog nest, strategy and elimination setting, with and without numpy.
"""

import itertools

import pytest

from repro.core import Strategy, build_plan
from repro.lang import catalog
from repro.machine.memory import LocalMemory
from repro.obs.metrics import MetricsRegistry, use_registry
from repro.runtime import DataSpace, make_arrays, merge_copies
from repro.runtime.engine import get_engine
from repro.runtime.parallel import ParallelResult, run_parallel

# pytest puts this directory on sys.path (rootdir-less test modules)
from test_engine_parity import CASES as PARITY_CASES
from test_engine_parity import SCALARS
from tests.arrays_oracle import arrays_with
from tests.nests import matmul

PLANS = [
    (f"{name}-{strategy.value}{'-min' if eliminate else ''}",
     fn, dict(strategy=strategy, eliminate_redundant=eliminate))
    for (name, fn), strategy, eliminate in itertools.product(
        catalog.ALL_LOOPS.items(), Strategy, (False, True))
] + [
    (f"MATMUL8-{strategy.value}", lambda: matmul(8),
     dict(strategy=strategy)) for strategy in Strategy
]


def reference_memories(plan, initial, mapping):
    """The allocation loop as it was before the bulk table."""
    memories = {}
    for b in plan.blocks:
        mem = LocalMemory(pid=mapping[b.index])
        for name, dblocks in plan.data_blocks.items():
            src = initial[name]
            mem.allocate(name, dblocks[b.index].elements,
                         init=lambda c, s=src: s[c])
        memories[b.index] = mem
    return memories


def assert_same_memories(got, want):
    assert got.keys() == want.keys()
    for blk, ref in want.items():
        mem = got[blk]
        assert (mem.pid, mem.words()) == (ref.pid, ref.words())
        assert mem.values == ref.values
        # same insertion order too: engines and the merge walk these
        assert list(mem.values) == list(ref.values)
        for name, store in mem.values.items():
            assert list(store) == list(ref.values[name])
            assert all(type(v) is float for v in store.values())
            assert all(type(x) is int for c in store for x in c)


@pytest.fixture
def allocated_by_run(monkeypatch):
    """-> the memories ``run_parallel`` hands the engine, before it runs."""
    import repro.runtime.engine as engine_pkg
    from repro.runtime.engine.base import Engine

    seen = {}

    class Capture(Engine):
        name = "capture"

        def run_blocks(self, plan, result, scalars):
            seen.update(result.memories)

    # run_parallel looks the resolver up on the package at call time
    monkeypatch.setattr(engine_pkg, "resolve_engine",
                        lambda name=None: Capture())

    def run(plan, initial, **kwargs):
        seen.clear()
        with use_registry(MetricsRegistry()):
            run_parallel(plan, initial=initial, **kwargs)
        return dict(seen)

    return run


@pytest.mark.parametrize("name,fn,kwargs", PLANS, ids=[p[0] for p in PLANS])
def test_bulk_allocation_equals_per_element(name, fn, kwargs, backing,
                                            allocated_by_run):
    plan = build_plan(fn(), **kwargs)
    initial = make_arrays(plan.model)
    mapping = {b.index: b.index for b in plan.blocks}
    assert_same_memories(allocated_by_run(plan, initial),
                         reference_memories(plan, initial, mapping))


def test_cyclic_placement_and_nonstrict(backing, allocated_by_run):
    plan = build_plan(catalog.l2(), strategy=Strategy.DUPLICATE)
    initial = make_arrays(plan.model)
    cyclic = {b.index: b.index % 3 for b in plan.blocks}
    assert_same_memories(
        allocated_by_run(plan, initial, block_to_pid=cyclic),
        reference_memories(plan, initial, cyclic))
    assert_same_memories(
        allocated_by_run(plan, initial, block_to_pid=cyclic, strict=False),
        reference_memories(plan, initial, cyclic))


def test_caller_supplied_initial(backing, allocated_by_run):
    """Values come from the caller's arrays, not the default init --
    including ranges that do not start at zero (L1's B[1:4, 2:5])."""
    plan = build_plan(catalog.l1())
    initial = arrays_with(
        plan.model, lambda name: lambda c: len(name) - sum(c) / 3)
    assert initial["B"].lo == (1, 2)
    mapping = {b.index: b.index for b in plan.blocks}
    got = allocated_by_run(plan, initial)
    assert_same_memories(got, reference_memories(plan, initial, mapping))
    held = next(iter(got[0].values["B"]))
    assert got[0].values["B"][held] == initial["B"][held]


def test_element_outside_the_initial_array_raises(backing):
    plan = build_plan(catalog.l1())
    initial = make_arrays(plan.model)
    a = initial["A"]
    initial["A"] = DataSpace("A", a.lo, tuple(h - 1 for h in a.hi))
    with pytest.raises(IndexError, match="A"):
        run_parallel(plan, initial=initial)
    mapping = {b.index: b.index for b in plan.blocks}
    with pytest.raises(IndexError, match="A"):
        reference_memories(plan, initial, mapping)


def test_table_form_of_allocate_directly():
    """The table is the plan layout's: a region is a row of it --
    ``{element: slot}`` into the store's flat list of the array,
    built when the region is first read."""
    grids = {"A": [1.5, 2.5, 3.5], "B": [9.0]}
    mem = LocalMemory(pid=3)
    rows = {"A": {(1,): 1, (0,): 0}, "B": {(4,): 0}}.__getitem__
    assert mem.allocate("A", rows, view=grids) == 0
    assert mem.allocate("B", rows, view=grids) == 0
    # nothing was copied: the memory still reads the lists
    assert mem.is_view_of(grids) and mem.words() == 3
    grids["A"][0] = -1.5
    assert mem.values == {"A": {(1,): 2.5, (0,): -1.5}, "B": {(4,): 9.0}}
    assert list(mem.values["A"]) == [(1,), (0,)]
    assert {a: set(held) for a, held in mem.values.items()} \
        == {"A": {(0,), (1,)}, "B": {(4,)}}
    # once read as dicts, the dicts are the memory
    assert not mem.is_view_of(grids)
    grids["A"][0] = 1.5
    assert mem.values["A"][(0,)] == -1.5 and (0,) in mem.values["A"]
    # a second region of an array, or any region of a memory that holds
    # dicts, is copied in like an ``init``: new words counted once
    rows = {"A": {(1,): 1, (2,): 2}}.__getitem__
    assert mem.allocate("A", rows, view=grids) == 1
    assert mem.values["A"] == {(1,): 2.5, (0,): -1.5, (2,): 3.5}
    assert mem.words() == 4


@pytest.mark.parametrize("name,fn,kwargs", PARITY_CASES,
                         ids=[c[0] for c in PARITY_CASES])
def test_run_outputs_unchanged_on_the_parity_matrix(name, fn, kwargs, backing):
    """Memories, stamps and merged arrays of a whole run equal those of
    the interpreter run over per-element-allocated memories."""
    plan = build_plan(fn(), **kwargs)
    initial = make_arrays(plan.model)
    mapping = {b.index: b.index for b in plan.blocks}
    want = ParallelResult(
        plan=plan, memories=reference_memories(plan, initial, mapping),
        block_to_pid=mapping)
    get_engine("interp").run_blocks(plan, want, SCALARS)
    for backend in ("interp", "auto"):
        got = run_parallel(plan, initial=initial, scalars=SCALARS,
                           backend=backend)
        assert_same_memories(got.memories, want.memories)
        assert got.write_stamps == want.write_stamps
        assert merge_copies(got, initial) == merge_copies(want, initial)
        assert got.memory_words == want.memory_words == \
            sum(m.words() for m in got.memories.values())
