"""The checked tier runs in place.

``interp`` checks every access against the running block's data blocks,
and where codegen could run on the store in place (a store, its block
memories unbuilt, no written replica: ``layout.in_place``) it does too:
every array is read and written through the block's ``{element: slot}``
map, stamps go to the store's flat stamp lists, no region is rendered
and no block memory built.  A plan with a written replica, or memories
built before the run, keeps per-block dicts through the same loop.
This file pins which path ran, by count, and that both say the same
thing as the interpreter on hand-built dicts.
"""

from dataclasses import replace
from functools import partial

import pytest

from repro.core import Strategy, build_plan
from repro.core.partition import DataBlock, IterationBlock
from repro.lang import catalog
from repro.obs.audit import inject_violation
from repro.obs.metrics import MetricsRegistry, use_registry
from repro.obs.trace import Tracer, use_tracer
from repro.runtime import make_arrays, merge_copies
from repro.runtime.engine import get_engine
from repro.runtime.layout import BlockMemories, FlatStore, layout_for
from repro.runtime.parallel import ParallelResult, run_parallel
from repro.runtime.verify import cross_check_backends

# pytest puts this directory on sys.path (rootdir-less test modules)
from test_engine_parity import SCALARS as PARITY_SCALARS
from test_flat_store import BLOCK_VIEWS, RENDERED, interp_reference
from tests.nests import matmul

#: every scalar a catalog nest names (AXPY's ``ALPHA`` too)
SCALARS = {**PARITY_SCALARS, "ALPHA": 2.5}
LOOPS = {"L1": catalog.l1, "L2": catalog.l2, "L3": catalog.l3,
         "L4": catalog.l4, "L5": catalog.l5}


def _catalog():
    """Every catalog nest x strategy x ``eliminate``, and MATMUL6."""
    for name, nest in catalog.ALL_LOOPS.items():
        for strategy in Strategy:
            for eliminate in (False, True):
                yield (f"{name}-{strategy.value}{'-min' * eliminate}",
                       partial(build_plan, nest(), strategy=strategy,
                               eliminate_redundant=eliminate))
    yield "MATMUL6-duplicate", partial(build_plan, matmul(6),
                                       strategy=Strategy.DUPLICATE)


#: certified plans with no written replica: interp runs them in place;
#: and those with one, where it keeps the written arrays' region dicts
IN_PLACE, REPLICATED = {}, {}
for _name, _plan in _catalog():
    (REPLICATED if layout_for(_plan()).replicated else IN_PLACE)[_name] = \
        _plan


def _interp(plan, strict=True):
    initial = make_arrays(plan.model)
    reg = MetricsRegistry()
    with use_registry(reg):
        res = run_parallel(plan, initial=initial, scalars=SCALARS,
                           backend="interp", strict=strict)
    return res, initial, reg


@pytest.mark.parametrize("name", sorted(IN_PLACE))
def test_a_certified_store_run_renders_nothing(name):
    plan = IN_PLACE[name]()
    res, initial, reg = _interp(plan)
    assert res.ok and not layout_for(plan).replicated
    assert reg.value(RENDERED) == 0
    assert reg.value(BLOCK_VIEWS) == 0
    assert res.memories.built is None
    assert res.store.stamps is not None
    # and it is the interpreter's run on hand-built dicts
    want = interp_reference(plan, initial, SCALARS)
    with use_registry(reg):
        assert merge_copies(res, initial) == merge_copies(want, initial)
    assert reg.value(RENDERED) == 0         # the merge took the flat path
    assert res.write_stamps == want.write_stamps


@pytest.mark.parametrize("name", sorted(REPLICATED))
def test_a_written_replica_keeps_the_written_regions(name):
    """One region per block and written array, rendered; the arrays no
    statement writes are still read from the store."""
    plan = REPLICATED[name]()
    layout = layout_for(plan)
    res, initial, reg = _interp(plan)
    assert res.ok and layout.replicated
    # (a block whose every computation is eliminated renders none)
    live = [b for b in plan.blocks if plan.live is None or any(
        (k, it) in plan.live for it in b.iterations
        for k in range(len(plan.nest.statements)))]
    assert reg.value(RENDERED) == len(live) * len(layout.written)
    assert res.store.stamps is None
    want = interp_reference(plan, initial, SCALARS)
    assert merge_copies(res, initial) == merge_copies(want, initial)
    assert res.write_stamps == want.write_stamps


def test_memories_read_before_the_run_are_what_runs():
    """Built before the run, the dicts are the memory: every region is
    rendered, and the counts and stamps are the in-place run's."""
    plan = IN_PLACE["MATMUL6-duplicate"]()
    flat, initial, _ = _interp(plan)
    store = FlatStore(layout_for(plan), initial)
    mapping = layout_for(plan).identity
    built = ParallelResult(plan=plan, memories=BlockMemories(store, mapping),
                           block_to_pid=mapping, store=store)
    built.memories[plan.blocks[0].index]            # builds them all
    reg = MetricsRegistry()
    with use_registry(reg):
        get_engine("interp").run_blocks(plan, built, SCALARS)
    assert reg.value(RENDERED) == len(plan.blocks) * len(plan.data_blocks)
    assert store.stamps is None
    assert (built.reads, built.writes, built.executed_iterations) == \
        (flat.reads, flat.writes, flat.executed_iterations)
    assert built.write_stamps == flat.write_stamps
    assert merge_copies(built, initial) == merge_copies(flat, initial)


# ---------------------------------------------------------------------------
# edge parity
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("loop", ["L2", "L3", "L5"])
def test_a_tolerant_sabotaged_run_drops_its_remote_writes_unstamped(loop):
    """Every element a tolerated run stamps is one its block holds; the
    writes that missed are counted and dropped, as on the dicts."""
    plan = inject_violation(build_plan(LOOPS[loop](),
                                       strategy=Strategy.DUPLICATE))
    got, initial, reg = _interp(plan, strict=False)
    assert reg.value(RENDERED) == 0 and got.store.stamps is not None
    assert got.remote_writes > 0
    want = interp_reference(plan, initial, SCALARS, strict=False)
    assert (got.reads, got.writes, got.remote_reads, got.remote_writes) == \
        (want.reads, want.writes, want.remote_reads, want.remote_writes)
    assert merge_copies(got, initial) == merge_copies(want, initial)
    assert got.write_stamps == want.write_stamps
    assert all(coords in plan.data_blocks[array][block].elements
               for block, array, coords in got.write_stamps)


#: plans with a live mask that masks something, and no written replica
LIVE = {
    "L2-min": lambda: build_plan(catalog.l2(), eliminate_redundant=True),
    "L2-min-dup": lambda: build_plan(catalog.l2(),
                                     strategy=Strategy.DUPLICATE,
                                     eliminate_redundant=True),
    "L3-min": lambda: build_plan(catalog.l3(), eliminate_redundant=True),
    "L3sub-min": lambda: build_plan(catalog.l3_sub(),
                                    eliminate_redundant=True),
}


@pytest.mark.parametrize("name", sorted(LIVE))
def test_a_live_mask_run_in_place_stamps_what_codegen_stamps(name):
    plan = LIVE[name]()
    assert plan.live is not None and not layout_for(plan).replicated
    report = cross_check_backends(plan, scalars=SCALARS)
    assert report.ok, report.mismatches
    interp, _, reg = _interp(plan)
    codegen = run_parallel(plan, scalars=SCALARS, backend="codegen")
    assert reg.value(RENDERED) == 0 and interp.store.stamps is not None
    assert interp.skipped_computations == codegen.skipped_computations > 0
    assert interp.write_stamps == codegen.write_stamps


def _with_an_empty_block(plan):
    """``plan`` and one more block, with no iterations and no data."""
    j = len(plan.blocks)
    empty = IterationBlock(index=j, base_point=plan.blocks[-1].base_point,
                           iterations=())
    return replace(plan, blocks=(*plan.blocks, empty), data_blocks={
        name: (*dbs, DataBlock(array=name, block_index=j,
                               elements=frozenset()))
        for name, dbs in plan.data_blocks.items()})


def test_an_empty_block_writes_nothing():
    plan = _with_an_empty_block(build_plan(catalog.l1()))
    tracer = Tracer(enabled=True)
    with use_tracer(tracer):
        res, initial, reg = _interp(plan)
    assert res.ok and reg.value(RENDERED) == 0
    spans = {sp.attributes["block"]: sp for sp in tracer.spans
             if sp.name == "engine.block"}
    assert spans[len(plan.blocks) - 1].attributes["statements"] == 0
    want = interp_reference(plan, initial, SCALARS)
    assert res.write_stamps == want.write_stamps
    assert merge_copies(res, initial) == merge_copies(want, initial)
    assert {block for block, _, _ in res.write_stamps} == \
        {b.index for b in plan.blocks[:-1]}


def test_a_block_with_no_live_computation_writes_nothing():
    """L2-min-dup: nine of its sixteen blocks have every computation
    eliminated; in place, none of them stamps a slot."""
    plan = build_plan(catalog.l2(), strategy=Strategy.DUPLICATE,
                      eliminate_redundant=True)
    dead = {b.index for b in plan.blocks
            if not any((k, it) in plan.live for it in b.iterations
                       for k in range(len(plan.nest.statements)))}
    res, initial, reg = _interp(plan)
    assert dead and reg.value(RENDERED) == 0
    assert not dead & {block for block, _, _ in res.write_stamps}
    want = interp_reference(plan, initial, SCALARS)
    assert res.write_stamps == want.write_stamps
    assert merge_copies(res, initial) == merge_copies(want, initial)
