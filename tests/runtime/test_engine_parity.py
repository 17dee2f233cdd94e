"""Backend parity: every engine must be bit-identical to the interpreter.

The interpreter is the golden model; the compiled, vectorized and
multiprocess tiers are only admissible because they produce the *same
bits*: merged arrays, write stamps, counters, and even the first
:class:`~repro.machine.memory.RemoteAccessError` a sabotaged plan
raises.  These tests pin all of that, across every catalog nest and
strategy mix (including redundancy elimination and duplicate-data
plans), with and without numpy.
"""

import dataclasses

import pytest

from repro.analysis import extract_references
from repro.api import Session
from repro.core import Strategy, build_plan
from repro.lang import catalog
from repro.machine.memory import RemoteAccessError
from repro.obs.metrics import MetricsRegistry
from repro.runtime import (
    make_arrays,
    merge_copies,
    run_parallel,
    run_sequential,
)
from repro.runtime import numpy_compat as npc
from repro.runtime.engine import (
    available_backends,
    backend_names,
    get_engine,
    resolve_engine,
)
from repro.runtime.engine.compiled import dict_target
from repro.runtime.engine.lowering import iteration_kernel
from repro.runtime.engine.vectorized import supports_plan

SCALARS = {"D": 2.0, "F": 3.0, "G": 1.5, "K": 0.5}

BACKENDS = ["compiled", "vectorized", "multiprocess", "codegen"]

CASES = [
    ("L1-nondup", catalog.l1, dict()),
    ("L1-dup", catalog.l1, dict(strategy=Strategy.DUPLICATE)),
    ("L2-nondup", catalog.l2, dict()),
    ("L2-dup", catalog.l2, dict(strategy=Strategy.DUPLICATE)),
    ("L3-nondup", catalog.l3, dict()),
    ("L3-min-nondup", catalog.l3, dict(eliminate_redundant=True)),
    ("L3-min-dup", catalog.l3, dict(strategy=Strategy.DUPLICATE,
                                    eliminate_redundant=True)),
    ("L3sub-min-dup", catalog.l3_sub, dict(strategy=Strategy.DUPLICATE,
                                           eliminate_redundant=True)),
    ("L4-nondup", catalog.l4, dict()),
    ("L5-dup", catalog.l5, dict(strategy=Strategy.DUPLICATE)),
    ("L5-dupA", catalog.l5, dict(strategy=Strategy.DUPLICATE,
                                 duplicate_arrays={"A"})),
    ("CONV-dup", catalog.convolution, dict(strategy=Strategy.DUPLICATE)),
    ("DFT-dup", catalog.dft, dict(strategy=Strategy.DUPLICATE)),
    ("STENCIL2D-nondup", catalog.stencil2d, dict()),
    ("TRI-nondup", catalog.triangular, dict()),
    ("INDEP-min-dup", catalog.independent, dict(strategy=Strategy.DUPLICATE,
                                                eliminate_redundant=True)),
]


def _run(plan, backend):
    initial = make_arrays(plan.model)
    result = run_parallel(plan, initial=initial, scalars=SCALARS,
                          backend=backend)
    return result, merge_copies(result, initial)


def _counters(result):
    return {
        "executed": result.executed_iterations,
        "skipped": result.skipped_computations,
        "remote": result.remote_accesses,
        "mems": {
            blk: (m.reads, m.writes, m.words())
            for blk, m in sorted(result.memories.items())
        },
    }


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("name,fn,kwargs", CASES, ids=[c[0] for c in CASES])
def test_backend_matches_interpreter(name, fn, kwargs, backend):
    plan = build_plan(fn(), **kwargs)
    golden, golden_merged = _run(plan, "interp")
    got, got_merged = _run(plan, backend)
    assert got.backend == resolve_engine(backend).name
    # bit-identical merged arrays, identical write stamps, same counters
    assert got_merged == golden_merged
    assert got.write_stamps == golden.write_stamps
    assert _counters(got) == _counters(golden)


@pytest.mark.parametrize("backend", ["interp", "auto"] + BACKENDS)
def test_run_sequential_parity(backend):
    """The sequential run is the golden model whatever backend the
    session was opened with: it resolves no engine."""
    nest = catalog.l3_sub()
    model = extract_references(nest)
    golden = run_sequential(nest, make_arrays(model), scalars=SCALARS)
    registry = MetricsRegistry()
    with Session(nest, backend=backend, scalars=SCALARS,
                 registry=registry) as session:
        got = session.run_sequential()
    assert set(got) == set(golden)
    for name in golden:
        assert got[name] == golden[name]
    assert not [k for k in registry.snapshot()
                if k.startswith("engine.resolved.")]


def _sabotage(plan):
    """Drop one held element of the first written array's block 0."""
    written = {s.lhs.array for s in plan.nest.statements}
    name = sorted(written)[0]
    dblocks = list(plan.data_blocks[name])
    db0 = dblocks[0]
    victim = sorted(db0.elements)[0]
    dblocks[0] = dataclasses.replace(
        db0, elements=frozenset(e for e in db0.elements if e != victim))
    data_blocks = dict(plan.data_blocks)
    data_blocks[name] = dblocks
    return dataclasses.replace(plan, data_blocks=data_blocks)


def test_sabotaged_plan_raises_identical_remote_access():
    bad = _sabotage(build_plan(catalog.l1()))
    raised = {}
    for backend in ["interp"] + BACKENDS:
        with pytest.raises(RemoteAccessError) as exc:
            run_parallel(bad, backend=backend)
        e = exc.value
        raised[backend] = (e.pid, e.array, e.coords, str(e))
    want = raised["interp"]
    for backend in BACKENDS:
        assert raised[backend] == want, backend


def test_non_strict_runs_use_interpreter():
    bad = _sabotage(build_plan(catalog.l1()))
    counts = set()
    for backend in BACKENDS:
        result = run_parallel(bad, strict=False, backend=backend)
        assert result.backend == "interp"
        assert result.remote_accesses > 0
        counts.add((result.remote_reads, result.remote_writes))
    assert len(counts) == 1


class TestWithoutNumpy:
    """The whole engine stack degrades gracefully on a numpy-free box."""

    @pytest.fixture(autouse=True)
    def no_numpy(self, monkeypatch):
        monkeypatch.setattr(npc, "np", None)

    def test_vectorized_unavailable_and_resolution_degrades(self):
        assert "vectorized" not in available_backends()
        assert resolve_engine("vectorized").name == "compiled"
        # auto is a real engine now; its *choice* skips vectorized
        from repro.runtime.engine.auto import choose_backend

        assert resolve_engine("auto").name == "auto"
        plan = build_plan(catalog.l3())
        assert choose_backend(plan)[0] == "codegen"

    def test_parity_still_holds(self):
        plan = build_plan(catalog.l3(), strategy=Strategy.DUPLICATE,
                          eliminate_redundant=True)
        golden, golden_merged = _run(plan, "interp")
        got, got_merged = _run(plan, "vectorized")  # degrades to compiled
        assert got.backend == "compiled"
        assert got_merged == golden_merged
        assert got.write_stamps == golden.write_stamps
        assert _counters(got) == _counters(golden)


class TestCompiledKernels:
    def test_kernel_cache_reuses_compiled_closures(self):
        nest = catalog.l1()
        psi = build_plan(nest).psi
        k1 = iteration_kernel(nest, {}, dict_target, None, False, psi)
        k2 = iteration_kernel(nest, {}, dict_target, None, False, psi)
        assert k1 is k2

    def test_unbound_scalar_matches_interpreter_error(self):
        nest = catalog.l3_sub()  # needs D/F/G/K bound
        model = extract_references(nest)
        with pytest.raises(KeyError) as interp_exc:
            run_sequential(nest, make_arrays(model))
        with pytest.raises(KeyError) as compiled_exc:
            run_parallel(build_plan(nest), backend="compiled")
        assert str(compiled_exc.value) == str(interp_exc.value)


def test_registry_names_and_order():
    # order depends on which backend module was imported first, so only
    # the membership is pinned
    assert set(backend_names()) == \
        {"interp", "compiled", "vectorized", "multiprocess", "codegen",
         "auto"}
    for name in available_backends():
        engine = get_engine(name)
        assert engine.name == name and engine.is_available()


def test_vectorized_supports_duplicate_readonly_but_not_written_replicas():
    dup = build_plan(catalog.l5(), strategy=Strategy.DUPLICATE,
                     duplicate_arrays={"A"})
    assert supports_plan(dup)


ZERO_TRIP = "for i = 5 to 1 { S1: A[i] = A[i - 1] + 1; }"


@pytest.mark.parametrize("backend", [*backend_names(), "all"])
def test_a_zero_trip_nest_runs_on_every_tier(backend, monkeypatch):
    """An empty space has nothing to rank: 0 blocks, 0 iterations, the
    arrays as they were."""
    monkeypatch.setenv("REPRO_MP_WORKERS", "2")
    with Session(ZERO_TRIP) as session:
        report = session.verify(backend=backend)
        assert report.ok
        assert (report.num_blocks, report.executed_iterations) == (0, 0)
        if backend != "all":
            initial = make_arrays(session.plan().model)
            result = session.run(backend=backend, initial=initial)
            assert result.ok and merge_copies(result, initial) == initial
