"""One block-kernel emitter -- the paper's loop L' -- four memory targets.

``repro.runtime.engine.lowering.emit_iteration_kernel`` is the only
place a block kernel is spelled; the tiers differ in the
``KernelTarget`` they hand it.  This file pins:

- the emitted *source* of every kind over L1-L5 + MATMUL, STENCIL2D, TRI
  (a non-rectangular space) and a ``|det M| = 2`` nest as sha256 digests
  in ``tests/golden/kernel_sources.json``, with the persisted kinds'
  cache keys (``cg3`` / ``cgs2``);
- each target, run from points on every block, against the interpreter;
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
from repro.lang import catalog, parse
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
)
from repro.runtime.engine.compiled import dict_target
from repro.runtime.engine.lowering import (
    KERNEL_CACHE,
    KernelCache,
    block_points,
    block_tally,
    compile_kernel,
    emit_iteration_kernel,
    reads_per_statement,
)
from repro.runtime.layout import FlatStore, layout_for as flat_layout_for
from repro.runtime.parallel import allocate_blocks, run_parallel

SCALARS = {"D": 2.0, "F": 3.0, "G": 1.5, "K": 0.5}

#: Psi = span{(2, -1)}: half of L''s inner points have no integer preimage
DET2 = "for i = 1 to 6 { for j = 1 to 6 { A[i, j] = A[i - 2, j + 1] + 1; } }"

NESTS = {
    "L1": catalog.l1, "L2": catalog.l2, "L3": catalog.l3,
    "L4": catalog.l4, "L5": catalog.l5,
    "MATMUL": lambda: catalog.matmul(4),
    "STENCIL2D": catalog.stencil2d, "TRI": catalog.triangular,
    "DET2": lambda: parse(DET2),
}
STRATEGIES = {"nondup": Strategy.NONDUPLICATE, "dup": Strategy.DUPLICATE}

GOLDEN = Path(__file__).parent.parent / "golden" / "kernel_sources.json"


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


# ---------------------------------------------------------------------------
# (a) golden sources
# ---------------------------------------------------------------------------

def emitted_sources() -> dict:
    """Every kernel kind's source (and the persisted kinds' cache keys)
    per nest x strategy x live flag."""
    out = {}
    for name, fn in NESTS.items():
        for sname, strategy in STRATEGIES.items():
            plan = build_plan(fn(), strategy=strategy)
            nest, psi = plan.nest, plan.psi
            rank_rect = plan.model.space.rank_strides()
            specs = grid_specs(plan)
            for live in (False, True):
                def emitted(target):
                    return emit_iteration_kernel(
                        nest, SCALARS, target, rank_rect, live, psi)

                out[f"{name}-{sname}-{'live' if live else 'all'}"] = {
                    "block": emitted(dict_target(nest)),
                    "store": emitted(slot_target(nest)),
                    "codegen": emitted(emit.list_target(nest, specs)),
                    "codegen_key": emit.kernel_key(
                        nest, SCALARS, specs, psi.kernel_rows(), rank_rect,
                        live),
                    "storegen": emitted(storegen.rect_target(nest)),
                    "store_key": storegen.store_kernel_key(
                        nest, SCALARS, live, rank_rect, psi.kernel_rows()),
                }
    return out


def source_digests(sources=None) -> dict:
    return {case: {kind: v if kind.endswith("_key") else _sha(v)
                   for kind, v in kinds.items()}
            for case, kinds in (sources or emitted_sources()).items()}


def test_emitted_sources_match_the_golden_digests():
    sources = emitted_sources()
    assert source_digests(sources) == json.loads(GOLDEN.read_text())["cases"]
    # loops on bounds, never on recorded tuples; a rectangle is the case
    # where the bounds are constants, with every partial sum bound at
    # the outermost level where it is constant
    assert not [(case, kind) for case, kinds in sources.items()
                for kind, src in kinds.items() if "_iters" in src]
    src = sources["MATMUL-dup-all"]["codegen"]
    assert "for i2 in range(0, 3 + 1):" in src
    assert src.count("for ") == 2 and src.index("_h0_") < src.index("for i2")


def test_versions_are_the_ones_on_disk_caches_were_written_with():
    assert emit._VERSION == "cg3"        # L' loops from block points
    assert storegen._VERSION == "cgs2"


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

    def tally(self, plan, block, out):
        """``out``: what the kernel returned for this one block's point."""
        assert (out is None) == (plan.live is None)
        assert out is None or [row[0] for row in out] == [block.index]
        executed, reads, writes, skipped = block_tally(
            block, out and out[0], reads_per_statement(plan.nest))
        self.executed += executed
        self.skipped += skipped
        self.traffic[block.index] = (reads, writes)


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
                              plan.live is not None, plan.psi), target.name)


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
    for b, point in zip(plan.blocks, block_points(plan)):
        out.tally(plan, b, kernel(
            [point], mems[b.index].values, out.stamps, _no_remote, plan.live,
            plan.model.space.rank_of))
    return out


def _run_flat_blocks(plan, call) -> Outcome:
    """One private flat buffer per block (both store kernels);
    ``call(points, block, idx, vals, stamps)`` runs the kernel on it."""
    mems = _memories(plan)
    out = Outcome(values={}, stamps={})
    for b, point in zip(plan.blocks, block_points(plan)):
        idx, nwords = _block_slots(plan, b.index)
        vals = [0.0] * nwords
        stamps = [-1] * nwords
        for name, slots in idx.items():
            for c, p in slots.items():
                vals[p] = mems[b.index].values[name][c]
        out.tally(plan, b, call([point], b, idx, vals, stamps))
        out.values[b.index] = {name: {c: vals[p] for c, p in slots.items()}
                               for name, slots in idx.items()}
        out.stamps.update({(b.index, name, c): stamps[p]
                           for name, slots in idx.items()
                           for c, p in slots.items() if stamps[p] >= 0})
    return out


def _run_slots(plan) -> Outcome:
    """generic store kernel: coords -> slot dicts over flat views."""
    kernel = _kernel(plan, slot_target(plan.nest))
    return _run_flat_blocks(plan, lambda pts, b, idx, vals, stamps: kernel(
        pts, idx, vals, stamps, _no_remote, plan.live,
        plan.model.space.rank_of))


def _run_rects(plan) -> Outcome:
    """storegen: per-block runtime coefficients."""
    layout = layout_for(plan)
    if not storegen.regions_rectangular(layout):
        pytest.skip("store regions are not rectangular")
    kernel = _kernel(plan, storegen.rect_target(plan.nest))
    return _run_flat_blocks(plan, lambda pts, b, idx, vals, stamps: kernel(
        pts, storegen.block_rect_args(layout, plan.nest, b.index), vals,
        stamps, plan.live, plan.model.space.rank_of))


def _run_lists(plan) -> Outcome:
    """codegen: flat grids shared by all blocks, all points at once."""
    try:
        written = check_written_partitioned(plan)
        specs = grid_specs(plan)
        check_nest(plan.nest, specs)
    except CodegenUnsupported as exc:
        pytest.skip(exc.reason)
    kernel = _kernel(plan, emit.list_target(plan.nest, specs))
    store = FlatStore(flat_layout_for(plan), make_arrays(plan.model))
    mems = store.views({b.index: b.index for b in plan.blocks})
    stamps = {n: [-1] * len(store.grids[n]) for n in written}
    out = Outcome(values={}, stamps={})
    counted = kernel(block_points(plan), store.grids, stamps, plan.live,
                     plan.model.space.rank_of)
    for j, b in enumerate(plan.blocks):
        out.tally(plan, b, counted and counted[j:j + 1])
    store.stamps = stamps
    out.values = {b: m.values for b, m in mems.items()}
    out.stamps = store.render_stamps()
    return out


RUNS = {"dicts": _run_dicts, "slots": _run_slots, "lists": _run_lists,
        "rects": _run_rects}
#: every plan x target, less the store regions known not to be boxes
CASES = {f"{p[0]}-{rid}": (*p, run) for p in PLANS
         for rid, run in RUNS.items()
         if not (rid == "rects" and p[0].startswith(("STENCIL2D", "DET2")))}


@pytest.mark.parametrize("name,fn,strategy,elim,run", CASES.values(),
                         ids=list(CASES))
def test_target_matches_interpreter(name, fn, strategy, elim, run):
    plan = build_plan(fn(), strategy=strategy, eliminate_redundant=elim)
    assert run(plan) == _interp(plan)   # field by field (a dataclass)


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
    return prog["key"], src, counters


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
    assert "_viol" not in off[1]
