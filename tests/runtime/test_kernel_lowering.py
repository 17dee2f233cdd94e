"""One block-kernel emitter -- the paper's loop L' -- one memory target.

``repro.runtime.engine.lowering.emit_iteration_kernel`` is the only
place a block kernel is spelled, and codegen's flat lists are the one
``KernelTarget`` a tier hands it.  This file pins:

- the emitted *source* over L1-L5 + MATMUL, STENCIL2D, TRI (a
  non-rectangular space) and a ``|det M| = 2`` nest as sha256 digests
  in ``tests/golden/kernel_sources.json``, with its cache key (``cg4``);
- codegen's kernel, run from points on every block, against the
  interpreter -- in place, and the way multiprocess workers run it, one
  share at a time on the shared store's slots -- and codegen handed
  memories that are dicts, which it leaves to the interpreter;
- a sabotaged plan's first ``RemoteAccessError`` through every
  delegating path;
- the bounded kernel LRU and the disk tier behind it;
- that the retired ``REPRO_CODEGEN_CHECKS`` variable is inert;
- a reduction's element kept in a local across the innermost loop: the
  stores a matmul kernel executes per iteration, and the nests where it
  is, and is not, promoted, on every tier.

Regenerate the golden file (only together with a ``_VERSION`` bump in
``codegen/emit.py``) from ``source_digests()``.
"""

import dataclasses
import dis
import hashlib
import json
import sys
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings

from repro.api import Session
from repro.core import Strategy, build_plan
from repro.lang import catalog, parse
from repro.machine.memory import RemoteAccessError
from repro.obs.audit import inject_violation
from repro.obs.metrics import MetricsRegistry, use_registry
from repro.obs.trace import Tracer, use_tracer
from repro.runtime import make_arrays
from tests.arrays_oracle import arrays_with, default_init
from repro.runtime.blockstore import SharedBlockStore, worker
from repro.runtime.engine import available_backends, get_engine
from repro.runtime.engine.codegen import emit
from repro.runtime.engine.codegen.engine import program_for
from repro.runtime.engine.codegen.geometry import (
    CodegenUnsupported,
    check_written_partitioned,
    grid_specs,
)
from repro.runtime.engine.lowering import (
    KERNEL_CACHE,
    KernelCache,
    block_points,
    charge_blocks,
    emit_iteration_kernel,
    reads_per_statement,
)
from repro.runtime.layout import FlatStore, layout_for as flat_layout_for
from repro.runtime.parallel import ParallelResult, run_parallel
from repro.runtime.pool import WorkerPool, use_pool
from repro.runtime.verify import verify_plan
from tests.nests import matmul
from tests.strategies import PLAN_KWARGS, loop_nests

SCALARS = {"D": 2.0, "F": 3.0, "G": 1.5, "K": 0.5}

#: Psi = span{(2, -1)}: half of L''s inner points have no integer preimage
DET2 = "for i = 1 to 6 { for j = 1 to 6 { A[i, j] = A[i - 2, j + 1] + 1; } }"

NESTS = {
    "L1": catalog.l1, "L2": catalog.l2, "L3": catalog.l3,
    "L4": catalog.l4, "L5": catalog.l5,
    "MATMUL": lambda: matmul(4),
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
    """Codegen's kernel source and cache key per nest x strategy x live
    flag."""
    out = {}
    for name, fn in NESTS.items():
        for sname, strategy in STRATEGIES.items():
            plan = build_plan(fn(), strategy=strategy)
            nest, psi = plan.nest, plan.psi
            rank_rect = plan.model.space.rank_strides()
            specs = grid_specs(plan)
            for live in (False, True):
                out[f"{name}-{sname}-{'live' if live else 'all'}"] = {
                    "codegen": emit_iteration_kernel(
                        plan.model, SCALARS,
                        emit.list_target(plan.model, specs),
                        rank_rect, live, psi),
                    "codegen_key": emit.kernel_key(
                        nest, SCALARS, specs, psi.kernel_rows(), rank_rect,
                        live),
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
    # the outermost level where it is constant; C[i, j] is loaded,
    # stored and stamped around the k loop, when its range is not empty
    assert not [(case, kind) for case, kinds in sources.items()
                for kind, src in kinds.items() if "_iters" in src]
    src = sources["MATMUL-dup-all"]["codegen"]
    assert "_rg = range(0, 3 + 1)\n        if _rg:" in src
    assert "for i2 in _rg:" in src and "_p0 = (_p0 + " in src
    assert src.count("for ") == 2 and src.index("_h0_") < src.index("for i2")


def test_versions_are_the_ones_on_disk_caches_were_written_with():
    assert emit._VERSION == "cg4"        # L' with promoted reductions


# ---------------------------------------------------------------------------
# (b) every way codegen runs, block by block, against the interpreter
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
    traffic: tuple = ()   # (reads, writes)


def _memories(plan):
    store = FlatStore(flat_layout_for(plan), make_arrays(plan.model))
    return store.views({b.index: b.index for b in plan.blocks})


def _outcome(res) -> Outcome:
    return Outcome(
        values={b: m.values for b, m in res.memories.items()},
        stamps=res.write_stamps, executed=res.executed_iterations,
        skipped=res.skipped_computations, traffic=(res.reads, res.writes))


def _charged(plan, store, counted) -> Outcome:
    """The counters ``charge_blocks`` makes of the kernel's rows
    ``counted`` (in block order; None without a live mask)."""
    assert (counted is None) == (plan.live is None)
    assert counted is None or \
        [row[0] for row in counted] == [b.index for b in plan.blocks]
    res = ParallelResult(plan=plan, memories={}, block_to_pid={},
                         store=store)
    charge_blocks(plan, res, counted, reads_per_statement(plan.nest))
    return Outcome(values={}, stamps={}, executed=res.executed_iterations,
                   skipped=res.skipped_computations,
                   traffic=(res.reads, res.writes))


def _interp(plan) -> Outcome:
    return _outcome(run_parallel(plan, initial=make_arrays(plan.model),
                                 scalars=SCALARS, backend="interp"))


def _kernel(plan, target):
    namespace: dict = {}
    exec(emit_iteration_kernel(plan.model, SCALARS, target,
                               plan.model.space.rank_strides(),
                               plan.live is not None, plan.psi), namespace)
    return namespace[target.name]


def _run_dicts(plan) -> Outcome:
    """codegen handed hand-built block memories, no run's store behind
    them: the dicts are the memory, so it hands every block to the
    interpreter."""
    mems = _memories(plan)
    res = ParallelResult(plan=plan, memories=mems,
                         block_to_pid={b.index: b.index for b in plan.blocks})
    reg = MetricsRegistry()
    with use_registry(reg):
        get_engine("codegen").run_blocks(plan, res, SCALARS)
    assert reg.value("engine.codegen.delegated") == 1
    assert reg.value("engine.codegen.runs") == 0
    return _outcome(res)


def _run_lists(plan) -> Outcome:
    """codegen: flat grids shared by all blocks, all points at once."""
    try:
        written = check_written_partitioned(plan)
        specs = grid_specs(plan)
    except CodegenUnsupported as exc:
        pytest.skip(exc.reason)
    kernel = _kernel(plan, emit.list_target(plan.model, specs))
    store = FlatStore(flat_layout_for(plan), make_arrays(plan.model))
    mems = store.views({b.index: b.index for b in plan.blocks})
    stamps = {n: [-1] * len(store.grids[n]) for n in written}
    counted = kernel(block_points(plan), store.grids, stamps, plan.live,
                     plan.model.space.ranker())
    out = _charged(plan, store, counted)
    store.stamps = stamps
    out.values = {b: m.values for b, m in mems.items()}
    out.stamps = store.render_stamps()
    return out


def _run_slots(plan) -> Outcome:
    """multiprocess: codegen's kernel, one share per block, on a worker's
    private copy of the shared store's slots (the share runner called in
    this process), then collected into the run's store."""
    store = FlatStore(flat_layout_for(plan), make_arrays(plan.model))
    mems = store.views({b.index: b.index for b in plan.blocks})
    shared = SharedBlockStore(plan, store, program_for(plan, SCALARS)["key"],
                              SCALARS)
    counted = []
    try:
        for point in block_points(plan):
            rows, _ = worker.run_share((shared.desc, [point], False))
            counted += rows or []
        shared.collect()
    finally:
        shared.close()
    out = _charged(plan, store, counted if plan.live is not None else None)
    out.values = {b: m.values for b, m in mems.items()}
    out.stamps = store.render_stamps()
    return out


RUNS = {"dicts": _run_dicts, "slots": _run_slots, "lists": _run_lists}
#: every plan x way, less the plans whose written replicas keep them
#: off the shared store (multiprocess runs them down codegen's chain)
CASES = {f"{p[0]}-{rid}": (*p, run) for p in PLANS
         for rid, run in RUNS.items()
         if not (rid == "slots" and p[0] in ("L2-dup", "L3-dup-min"))}


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
    for backend in ("codegen", "multiprocess"):
        reg = MetricsRegistry()
        assert _first_remote(bad, backend, reg) == want
        assert reg.value("engine.codegen.delegated") == 1
        assert reg.value("engine.codegen.runs") == 0
    # multiprocess went down codegen's chain: no store, no pool
    assert reg.value("engine.shm.stores") == 0
    assert reg.value("engine.pool.spawns") == 0


def _outcome_or_first_error(plan, backend):
    try:
        res = run_parallel(plan, initial=make_arrays(plan.model),
                           scalars=SCALARS, backend=backend)
    except RemoteAccessError as e:
        return e.pid, e.array, e.coords, e.is_write, str(e)
    return _outcome(res)


@given(loop_nests())
@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_no_sabotaged_generated_plan_runs_unchecked(nest):
    """What codegen's check elision rests on: a generated nest's plan,
    sabotaged, under codegen and multiprocess raises exactly the
    interpreter's first error -- or, where the sabotage left the plan
    communication-free, completes as the interpreter does."""
    pool = WorkerPool("sabotaged-nests")
    with mock.patch.dict("os.environ", {"REPRO_MP_WORKERS": "2"}), \
            use_pool(pool):
        try:
            for kwargs in PLAN_KWARGS:
                bad = inject_violation(build_plan(nest, **kwargs))
                want = _outcome_or_first_error(bad, "interp")
                for backend in ("codegen", "multiprocess"):
                    assert _outcome_or_first_error(bad, backend) == want, \
                        backend
        finally:
            pool.shutdown()


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
        with Session(matmul(n), backend="codegen", registry=reg) as s:
            assert s.run().backend == "codegen"
    assert len(KERNEL_CACHE) <= 2
    assert reg.value("engine.kernel_cache.evict") >= 1
    assert reg.value("engine.codegen.emitted") == 3

    # the first nest's kernel was evicted; a new plan object for it has
    # no program side-car either, so it walks memory -> disk
    plan = dataclasses.replace(build_plan(matmul(2)))
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


# ---------------------------------------------------------------------------
# (f) a reduction's element stays in a local across the innermost loop
# ---------------------------------------------------------------------------

#: ``y[i]`` accumulates along ``j``, whose range is empty at ``i = 6``
TRIRED = ("for i = 1 to 6 { for j = i + 1 to 6 { "
          "y[i] = y[i] + A[i, j] * x[j]; } }")


def _codegen_source(plan) -> str:
    return emit_iteration_kernel(
        plan.model, SCALARS, emit.list_target(plan.model, grid_specs(plan)),
        plan.model.space.rank_strides(), plan.live is not None, plan.psi)


def _stores_per_iteration(plan) -> float:
    """``STORE_SUBSCR`` opcodes executed in codegen's kernel frame per
    executed iteration of one in-place run."""
    opcode = dis.opmap["STORE_SUBSCR"]
    stores = 0

    def in_kernel(frame, event, arg):
        nonlocal stores
        if event == "opcode" and frame.f_code.co_code[frame.f_lasti] == opcode:
            stores += 1
        return in_kernel

    def on_call(frame, event, arg):
        if frame.f_code.co_name != emit.KERNEL_NAME:
            return None
        frame.f_trace_opcodes = True
        return in_kernel

    before = sys.gettrace()
    sys.settrace(on_call)
    try:
        res = run_parallel(plan, scalars=SCALARS, backend="codegen")
    finally:
        sys.settrace(before)
    assert res.backend == "codegen" and stores
    return stores / res.executed_iterations


def test_a_matmul_kernel_stores_once_per_inner_loop():
    """``C[i, j]`` does not move with ``k``: its value and its stamp are
    stored once per ``k`` loop (of 4 iterations), not per iteration."""
    plan = build_plan(matmul(4), strategy=Strategy.DUPLICATE)
    assert _stores_per_iteration(plan) <= 0.5


@pytest.mark.parametrize("strategy", STRATEGIES.values(), ids=list(STRATEGIES))
@pytest.mark.parametrize("text,promoted", [
    (TRIRED, True),
    # y[i - 1] is another name for an element y[i] writes
    ("for i = 1 to 5 { for j = 1 to 5 { "
     "y[i] = y[i] + y[i - 1] * A[i, j]; } }", False),
    # the second statement reads the promoted element; it is not
    # promoted itself, so the rank is taken at every iteration
    ("for i = 1 to 6 { for j = i + 1 to 6 { "
     "y[i] = y[i] + A[i, j] * x[j]; z[i, j] = y[i] * 2; } }", True),
], ids=["triangular", "another-element", "two-statements"])
def test_promotion_keeps_values_and_stamps_on_every_tier(text, promoted,
                                                         strategy):
    plan = build_plan(parse(text), strategy=strategy)
    assert ("_p0 = " in _codegen_source(plan)) == promoted
    report = verify_plan(plan, scalars=SCALARS, backend="all")
    assert set(report.cross_checked) == set(available_backends())
    assert report.ok, report.mismatches


def test_an_empty_inner_range_reads_and_writes_nothing():
    """A block point past the last row: ``j``'s range is empty, and the
    promoted element -- outside ``y``'s grid -- is neither loaded nor
    stored nor stamped."""
    plan = build_plan(parse(TRIRED), strategy=Strategy.DUPLICATE)
    kernel = _kernel(plan, emit.list_target(plan.model, grid_specs(plan)))
    grids = FlatStore(flat_layout_for(plan), make_arrays(plan.model)).grids
    before = {n: list(g) for n, g in grids.items()}
    stamps = {"y": [-1] * len(grids["y"])}
    assert kernel([(0, 6)], grids, stamps, None,
                  plan.model.space.ranker()) is None
    assert grids == before and stamps == {"y": [-1] * len(grids["y"])}


def test_a_reduction_that_can_divide_by_zero_raises_as_interp_does():
    """A right-hand side with an unfolded ``/`` is not promoted: every
    tier raises the interpreter's ``ZeroDivisionError``."""
    plan = build_plan(parse(TRIRED.replace("*", "/")),
                      strategy=Strategy.DUPLICATE)
    assert "_p0" not in _codegen_source(plan)
    zero_x = arrays_with(plan.model, lambda name: (
        (lambda c: 0.0) if name == "x" else default_init(name)))
    for backend in available_backends():
        with pytest.raises(ZeroDivisionError, match="float division by zero"):
            run_parallel(plan, initial=zero_x, scalars=SCALARS,
                         backend=backend)
    with pytest.raises(ZeroDivisionError, match="float division by zero"):
        verify_plan(plan, initial=zero_x, scalars=SCALARS, backend="all")
