"""One per-iteration kernel emitter, four memory targets.

``repro.runtime.engine.lowering.emit_iteration_kernel`` is the only
place a block kernel is spelled; the tiers differ in the
``KernelTarget`` they hand it.  This file pins:

- the emitted *source* of every kind over L1-L5 + MATMUL (and TRI, a
  non-rectangular space) as sha256 digests in
  ``tests/golden/kernel_sources.json`` -- the persisted kinds (codegen
  ``list``/``rect``, storegen store) and their cache keys were taken
  from commit 553efc6, before the four emitters became one, so on-disk
  caches written by earlier versions stay valid (``rect`` alone was
  regenerated since, with ``cg2``: hoisted slot and stamp terms);
- each target, run directly on every block, against the interpreter;
- a sabotaged plan's first ``RemoteAccessError`` through every checked
  path;
- the bounded kernel LRU and the disk tier behind it;
- that the retired ``REPRO_CODEGEN_CHECKS`` variable is inert.

Regenerate the golden file (only together with a ``_VERSION`` bump in
``codegen/emit.py`` / ``storegen.py``) from ``source_digests()``.
"""

import dataclasses
import hashlib
import json
from pathlib import Path

import pytest

from repro.api import Session
from repro.core import Strategy, build_plan
from repro.lang import catalog
from repro.machine.memory import RemoteAccessError
from repro.obs.audit import inject_violation
from repro.obs.metrics import MetricsRegistry, use_registry
from repro.obs.trace import Tracer, use_tracer
from repro.runtime import make_arrays
from repro.runtime.blockstore import layout_for, shm_available
from repro.runtime.blockstore.worker import slot_target
from repro.runtime.engine.codegen import emit, storegen
from repro.runtime.engine.codegen.engine import program_for
from repro.runtime.engine.codegen.geometry import (
    CodegenUnsupported,
    check_nest,
    check_written_partitioned,
    grid_specs,
    rect_block_shape,
)
from repro.runtime.engine.compiled import dict_target
from repro.runtime.engine.lowering import (
    KERNEL_CACHE,
    KernelCache,
    compile_kernel,
    emit_iteration_kernel,
    reads_per_statement,
)
from repro.runtime.parallel import allocate_blocks, run_parallel

SCALARS = {"D": 2.0, "F": 3.0, "G": 1.5, "K": 0.5}

NESTS = {
    "L1": catalog.l1, "L2": catalog.l2, "L3": catalog.l3,
    "L4": catalog.l4, "L5": catalog.l5,
    "MATMUL": lambda: catalog.matmul(4),
}
STRATEGIES = {"nondup": Strategy.NONDUPLICATE, "dup": Strategy.DUPLICATE}

GOLDEN = Path(__file__).parent.parent / "golden" / "kernel_sources.json"


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


# ---------------------------------------------------------------------------
# (a) golden sources
# ---------------------------------------------------------------------------

def source_digests() -> dict:
    """Digest of every kernel kind's source (and the persisted kinds'
    cache keys) per nest x strategy x live flag."""
    out = {}
    for name, fn in {**NESTS, "TRI": catalog.triangular}.items():
        for sname, strategy in STRATEGIES.items():
            plan = build_plan(fn(), strategy=strategy)
            nest = plan.nest
            rank_rect = plan.model.space.rank_strides()
            specs = grid_specs(plan)
            for live in (False, True):
                def emitted(target):
                    return _sha(emit_iteration_kernel(
                        nest, SCALARS, target, rank_rect, live))

                d = {
                    "block": emitted(dict_target(nest)),
                    "store": emitted(slot_target(nest)),
                    "list": emitted(emit.list_target(nest, specs)),
                    "list_key": emit.kernel_key(
                        "list", nest, SCALARS, specs, None, rank_rect, live),
                    "storegen": emitted(storegen.rect_target(nest)),
                    "store_key": storegen.store_kernel_key(
                        nest, SCALARS, live, rank_rect),
                }
                rect = rect_block_shape(plan) \
                    if not live and rank_rect is not None else None
                if rect is not None:
                    d["rect"] = _sha(emit.emit_rect_kernel(
                        nest, SCALARS, specs, rect, rank_rect))
                    d["rect_key"] = emit.kernel_key(
                        "rect", nest, SCALARS, specs, rect, rank_rect, live)
                out[f"{name}-{sname}-{'live' if live else 'all'}"] = d
    return out


def test_emitted_sources_match_the_golden_digests():
    want = json.loads(GOLDEN.read_text())["cases"]
    got = source_digests()
    assert set(got) == set(want)
    for case in want:
        assert got[case] == want[case], case
    assert sum("rect" in d for d in want.values()) >= 4


def test_versions_are_the_ones_on_disk_caches_were_written_with():
    assert emit._VERSION == "cg2"        # rect kernels: hoisted terms
    assert emit._LIST_VERSION == "cg1"   # list kernels: source unchanged
    assert storegen._VERSION == "cgs1"


# ---------------------------------------------------------------------------
# (b) every target, block by block, against the interpreter
# ---------------------------------------------------------------------------

PLANS = [(f"{n}-{s}{'-min' if elim else ''}", fn, strategy, elim)
         for n, fn in NESTS.items()
         for s, strategy in STRATEGIES.items()
         for elim in (False, True)]


@dataclasses.dataclass
class Outcome:
    """What a run leaves behind, in the interpreter's terms."""

    values: dict          # block -> array -> {coords: value}
    stamps: dict          # (block, array, coords) -> stamp
    executed: int = 0
    skipped: int = 0
    traffic: dict = dataclasses.field(default_factory=dict)  # block -> (r, w)

    def tally(self, plan, block, executed, counts):
        nreads = reads_per_statement(plan.nest)
        self.executed += executed
        self.traffic[block.index] = (
            sum(n * r for n, r in zip(counts, nreads)), sum(counts))
        if plan.live is not None:
            self.skipped += sum(len(block.iterations) - n for n in counts)


def _memories(plan):
    return allocate_blocks(plan, make_arrays(plan.model),
                           {b.index: b.index for b in plan.blocks})


def _interp(plan) -> Outcome:
    res = run_parallel(plan, initial=make_arrays(plan.model),
                       scalars=SCALARS, backend="interp")
    return Outcome(
        values={b: m.values for b, m in res.memories.items()},
        stamps=res.write_stamps, executed=res.executed_iterations,
        skipped=res.skipped_computations,
        traffic={b: (m.reads, m.writes) for b, m in res.memories.items()})


def _kernel(plan, target):
    return compile_kernel(
        emit_iteration_kernel(plan.nest, SCALARS, target,
                              plan.model.space.rank_strides(),
                              plan.live is not None), target.name)


def _no_remote(k, it):
    raise AssertionError(f"statement {k} at {it} missed its block's memory")


def _block_slots(plan, bindex):
    """Block-local coords -> slot per array, in the store's layout."""
    layout = layout_for(plan)
    idx, off = {}, 0
    for name in layout.arrays:
        order = layout.order[(name, bindex)]
        idx[name] = {c: off + j for j, c in enumerate(order)}
        off += len(order)
    return idx, off


def _run_dicts(plan) -> Outcome:
    """compiled tier: LocalMemory value dicts."""
    kernel = _kernel(plan, dict_target(plan.nest))
    mems = _memories(plan)
    out = Outcome(values={b: m.values for b, m in mems.items()}, stamps={})
    for b in plan.blocks:
        out.tally(plan, b, *kernel(
            b.index, b.iterations, mems[b.index].values, out.stamps,
            _no_remote, plan.live, plan.model.space.rank_of))
    return out


def _run_flat_blocks(plan, call) -> Outcome:
    """One private flat buffer per block (both store kernels);
    ``call(block, idx, vals, stamps)`` runs the kernel on it."""
    mems = _memories(plan)
    out = Outcome(values={}, stamps={})
    for b in plan.blocks:
        idx, nwords = _block_slots(plan, b.index)
        vals = [0.0] * nwords
        stamps = [-1] * nwords
        for name, slots in idx.items():
            for c, p in slots.items():
                vals[p] = mems[b.index].values[name][c]
        out.tally(plan, b, *call(b, idx, vals, stamps))
        out.values[b.index] = {name: {c: vals[p] for c, p in slots.items()}
                               for name, slots in idx.items()}
        out.stamps.update({(b.index, name, c): stamps[p]
                           for name, slots in idx.items()
                           for c, p in slots.items() if stamps[p] >= 0})
    return out


def _run_slots(plan) -> Outcome:
    """generic store kernel: coords -> slot dicts over flat views."""
    kernel = _kernel(plan, slot_target(plan.nest))
    return _run_flat_blocks(plan, lambda b, idx, vals, stamps: kernel(
        b.index, b.iterations, idx, vals, stamps, _no_remote, plan.live,
        plan.model.space.rank_of))


def _run_rects(plan) -> Outcome:
    """storegen: per-block runtime coefficients."""
    layout = layout_for(plan)
    if not storegen.regions_rectangular(layout):
        pytest.skip("store regions are not rectangular")
    kernel = _kernel(plan, storegen.rect_target(plan.nest))
    return _run_flat_blocks(plan, lambda b, idx, vals, stamps: kernel(
        b.index, b.iterations,
        storegen.block_rect_args(layout, plan.nest, b.index), vals, stamps,
        plan.live, plan.model.space.rank_of))


def _run_lists(plan) -> Outcome:
    """codegen list: flat grids shared by all blocks."""
    try:
        written = check_written_partitioned(plan)
        specs = grid_specs(plan)
        check_nest(plan.nest, specs)
    except CodegenUnsupported as exc:
        pytest.skip(exc.reason)
    kernel = _kernel(plan, emit.list_target(plan.nest, specs))
    mems = _memories(plan)

    def flat(name, c):
        spec = specs[name]
        return sum((v - lo) * s for v, lo, s in zip(c, spec.lo, spec.strides))

    grids = {n: [0.0] * s.size for n, s in specs.items()}
    stamps = {n: [-1] * specs[n].size for n in written}
    for m in mems.values():
        for name, held in m.values.items():
            for c, v in held.items():
                grids[name][flat(name, c)] = v
    out = Outcome(values={}, stamps={})
    blocks = {b.index: b for b in plan.blocks}
    for bindex, executed, counts in kernel(
            [(b.index, b.iterations) for b in plan.blocks], grids, stamps,
            plan.live, plan.model.space.rank_of):
        out.tally(plan, blocks[bindex], executed, counts)
    for bindex, m in mems.items():
        out.values[bindex] = {
            name: {c: grids[name][flat(name, c)] for c in held}
            for name, held in m.values.items()}
        out.stamps.update({
            (bindex, name, c): stamps[name][flat(name, c)]
            for name in written for c in m.values[name]
            if stamps[name][flat(name, c)] >= 0})
    return out


@pytest.mark.parametrize("run", [_run_dicts, _run_slots, _run_lists,
                                 _run_rects],
                         ids=["dicts", "slots", "lists", "rects"])
@pytest.mark.parametrize("name,fn,strategy,elim", PLANS,
                         ids=[p[0] for p in PLANS])
def test_target_matches_interpreter(name, fn, strategy, elim, run):
    plan = build_plan(fn(), strategy=strategy, eliminate_redundant=elim)
    want = _interp(plan)
    got = run(plan)
    assert got.values == want.values
    assert got.stamps == want.stamps
    assert got.executed == want.executed
    assert got.skipped == want.skipped
    assert got.traffic == want.traffic


# ---------------------------------------------------------------------------
# (c) a sabotaged plan raises the interpreter's first RemoteAccessError
# ---------------------------------------------------------------------------

def _first_remote(plan, backend, registry=None):
    if registry is None:                    # an empty registry is falsy
        registry = MetricsRegistry()
    with use_registry(registry):
        with pytest.raises(RemoteAccessError) as exc:
            run_parallel(plan, scalars=SCALARS, backend=backend)
    e = exc.value
    return e.pid, e.array, e.coords, e.is_write, str(e)


@pytest.mark.parametrize("make", [catalog.l1, catalog.l4])
def test_sabotaged_plan_raises_the_interpreters_first_error(make):
    bad = inject_violation(build_plan(make()))
    want = _first_remote(bad, "interp")
    assert _first_remote(bad, "compiled") == want
    reg = MetricsRegistry()
    assert _first_remote(bad, "codegen", reg) == want
    assert reg.value("engine.codegen.delegated") == 1
    assert reg.value("engine.codegen.runs") == 0


@pytest.mark.skipif(not shm_available(), reason="needs the shared store")
def test_sabotaged_plan_through_the_generic_store_kernel():
    bad = inject_violation(build_plan(catalog.l1()))
    want = _first_remote(bad, "interp")
    reg = MetricsRegistry()
    assert _first_remote(bad, "multiprocess", reg) == want
    # by-descriptor leases ran, and not on the certified storegen kernel
    assert reg.value("engine.shm.attaches") >= 1
    assert reg.value("engine.codegen.store_kernels") == 0


# ---------------------------------------------------------------------------
# (d) the kernel LRU is bounded, and the disk tier stands behind it
# ---------------------------------------------------------------------------

def test_kernel_cache_is_a_bounded_lru():
    reg = MetricsRegistry()
    cache = KernelCache(2)
    with use_registry(reg):
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1          # refreshes "a"
        cache.put("c", 3)                   # evicts "b"
    assert len(cache) == 2
    assert cache.get("b") is None
    assert cache.get("a") == 1 and cache.get("c") == 3
    assert reg.value("engine.kernel_cache.evict") == 1


def test_evicted_codegen_kernel_comes_back_from_disk(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CODEGEN_CACHE_DIR", str(tmp_path))
    monkeypatch.setenv("REPRO_CODEGEN_DISK", "1")
    monkeypatch.setattr(KERNEL_CACHE, "capacity", 2)
    KERNEL_CACHE._entries.clear()
    reg = MetricsRegistry()
    for n in (2, 3, 4):
        with Session(catalog.matmul(n), backend="codegen", registry=reg) as s:
            assert s.run().backend == "codegen"
    assert len(KERNEL_CACHE) <= 2
    assert reg.value("engine.kernel_cache.evict") >= 1
    assert reg.value("engine.codegen.emitted") == 3

    # the first nest's kernel was evicted; a new plan object for it has
    # no program side-car either, so it walks memory -> disk
    plan = dataclasses.replace(build_plan(catalog.matmul(2)))
    reg2, tracer = MetricsRegistry(), Tracer(enabled=True)
    with use_registry(reg2), use_tracer(tracer):
        program_for(plan, {})
    assert reg2.value("engine.codegen.cache.memory.hit") == 0
    assert reg2.value("cache.disk.hit") == 1
    assert reg2.value("engine.codegen.emitted") == 0
    assert not [s for s in tracer.spans if s.name == "engine.codegen.emit"]


# ---------------------------------------------------------------------------
# (e) the retired knob does nothing
# ---------------------------------------------------------------------------

def _codegen_footprint(plan):
    from repro.runtime.engine.codegen.diskcache import get_disk_cache

    KERNEL_CACHE._entries.clear()
    reg = MetricsRegistry()
    with use_registry(reg):
        run_parallel(dataclasses.replace(plan), scalars=SCALARS,
                     backend="codegen")
        prog = program_for(dataclasses.replace(plan), SCALARS)
    src = get_disk_cache().load(prog["key"])[1]
    counters = {n: reg.value(n) for n in reg.names()
                if n.startswith("engine.codegen.")}
    return prog["mode"], prog["key"], src, counters


def test_codegen_checks_variable_is_inert(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CODEGEN_DISK", "1")
    plan = build_plan(catalog.l3(), eliminate_redundant=True)
    monkeypatch.setenv("REPRO_CODEGEN_CACHE_DIR", str(tmp_path / "off"))
    monkeypatch.delenv("REPRO_CODEGEN_CHECKS", raising=False)
    off = _codegen_footprint(plan)
    monkeypatch.setenv("REPRO_CODEGEN_CACHE_DIR", str(tmp_path / "on"))
    monkeypatch.setenv("REPRO_CODEGEN_CHECKS", "1")
    on = _codegen_footprint(plan)
    assert on == off
    assert off[0] == "list" and "_viol" not in off[2]
