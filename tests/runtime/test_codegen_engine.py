"""The codegen tier's cache and dispatch machinery.

Parity (bit-identical arrays, stamps, counters, sabotage errors) is
pinned in ``test_engine_parity.py``; this file covers what is *new*
with the codegen tier:

- the on-disk kernel cache: roundtrip, LRU eviction under the byte
  cap, corruption tolerated as misses, stale interpreter tags, the
  disable knob, and two processes hammering one directory;
- the warm-process promise: a second process running the same plan
  serves its kernel from disk with *zero* emit/compile spans;
- the ``auto`` engine's size/geometry-aware choice (and its counter);
- the per-plan side-car: a geometry build that dies leaves nothing
  behind, "unsupported" is remembered, a rewritten plan starts over;
- chaos determinism when the blockstore workers run codegen store
  kernels attached by cache key through the descriptor lease.
"""

import json
import marshal
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.core import Strategy, build_plan
from repro.lang import catalog
from repro.obs.metrics import MetricsRegistry, use_registry
from repro.obs.trace import Tracer, use_tracer
from repro.runtime import make_arrays, merge_copies, run_parallel
from repro.runtime import numpy_compat as npc
from repro.runtime.blockstore import shm_available
from repro.runtime.engine.auto import choose_backend
from repro.runtime.engine.codegen.diskcache import (
    DiskKernelCache,
    get_disk_cache,
)
from repro.runtime.engine.multiproc import MultiprocessEngine

SCALARS = {"D": 2.0, "F": 3.0, "G": 1.5, "K": 0.5}


def _codeobj(src):
    return compile(src, "<test>", "exec")


# ---------------------------------------------------------------------------
# the on-disk cache, poked directly
# ---------------------------------------------------------------------------

class TestDiskCache:
    def test_store_then_load_roundtrips_the_code_object(self, tmp_path):
        reg = MetricsRegistry()
        cache = DiskKernelCache(tmp_path, cap_bytes=1 << 20)
        src = "def f(x):\n    return x + 1\n"
        blob = marshal.dumps(_codeobj(src))
        with use_registry(reg):
            cache.store("k1", src, blob)
            code, got_src = cache.load("k1")
        assert got_src == src
        ns: dict = {}
        exec(code, ns)
        assert ns["f"](2) == 3
        assert reg.value("cache.disk.store") == 1
        assert reg.value("cache.disk.hit") == 1
        assert reg.value("cache.disk.bytes") == len(src.encode()) + len(blob)

    def test_unknown_key_is_a_new_key_miss(self, tmp_path):
        reg = MetricsRegistry()
        cache = DiskKernelCache(tmp_path, cap_bytes=1 << 20)
        with use_registry(reg):
            assert cache.load("nope") == (None, None)
        assert reg.value("cache.disk.miss.new-key") == 1
        assert reg.value("cache.disk.hit") == 0

    def test_lru_eviction_under_the_byte_cap(self, tmp_path):
        # each entry is 60 (src) + 40 (bin) = 100 bytes; cap 220 holds
        # two.  Touching "a" makes "b" the LRU victim when "c" lands.
        reg = MetricsRegistry()
        cache = DiskKernelCache(tmp_path, cap_bytes=220)
        with use_registry(reg):
            cache.store("a", "x" * 60, b"y" * 40)
            cache.store("b", "x" * 60, b"y" * 40)
            cache.load("a")
            cache.store("c", "x" * 60, b"y" * 40)
        assert reg.value("cache.disk.evict") == 1
        assert not (tmp_path / "b.py").exists()
        assert not (tmp_path / "b.bin").exists()
        with use_registry(reg):
            assert cache.load("b") == (None, None)
            assert cache.load("a")[1] == "x" * 60
            assert cache.load("c")[1] == "x" * 60

    def test_corrupt_manifest_degrades_to_an_empty_cache(self, tmp_path):
        reg = MetricsRegistry()
        cache = DiskKernelCache(tmp_path, cap_bytes=1 << 20)
        with use_registry(reg):
            cache.store("k1", "x = 1\n", b"junk")
        (tmp_path / "manifest.json").write_text("{not json")
        with use_registry(reg):
            assert cache.load("k1") == (None, None)
            # the cache keeps working: a fresh store rebuilds the manifest
            cache.store("k2", "x = 2\n", b"junk")
            assert cache.load("k2")[1] == "x = 2\n"
        assert reg.value("cache.disk.miss.new-key") == 1

    def test_missing_payload_is_a_corrupt_miss(self, tmp_path):
        reg = MetricsRegistry()
        cache = DiskKernelCache(tmp_path, cap_bytes=1 << 20)
        with use_registry(reg):
            cache.store("k1", "x = 1\n", b"junk")
            (tmp_path / "k1.py").unlink()
            assert cache.load("k1") == (None, None)
            # the entry was dropped, not left to fail forever
            assert cache.load("k1") == (None, None)
        assert reg.value("cache.disk.miss.corrupt") == 1
        assert reg.value("cache.disk.miss.new-key") == 1

    def test_stale_interpreter_tag_returns_source_only(self, tmp_path):
        reg = MetricsRegistry()
        cache = DiskKernelCache(tmp_path, cap_bytes=1 << 20)
        src = "x = 1\n"
        with use_registry(reg):
            cache.store("k1", src, marshal.dumps(_codeobj(src)))
        mpath = tmp_path / "manifest.json"
        m = json.loads(mpath.read_text())
        m["entries"]["k1"]["tag"] = "other-interpreter"
        mpath.write_text(json.dumps(m))
        with use_registry(reg):
            code, got_src = cache.load("k1")
        assert code is None and got_src == src
        assert reg.value("cache.disk.stale-tag") == 1
        assert reg.value("cache.disk.hit") == 1

    def test_disable_knob_and_dir_knob(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CODEGEN_DISK", "0")
        assert get_disk_cache() is None
        monkeypatch.delenv("REPRO_CODEGEN_DISK")
        monkeypatch.setenv("REPRO_CODEGEN_CACHE_DIR", str(tmp_path / "cg"))
        cache = get_disk_cache()
        assert cache is not None and cache.root == tmp_path / "cg"

    def test_multiproc_skips_store_codegen_without_persistence(
            self, monkeypatch):
        # a spawn-fresh worker would re-emit per process without the
        # disk tier, so the parent must not set a codegen key at all
        monkeypatch.setenv("REPRO_CODEGEN_DISK", "0")
        plan = build_plan(catalog.matmul(4), strategy=Strategy.DUPLICATE)
        assert MultiprocessEngine._codegen_key(plan, {}) is None

    def test_multiproc_prepares_a_store_kernel_key(self, tmp_path,
                                                   monkeypatch):
        monkeypatch.delenv("REPRO_CODEGEN_DISK", raising=False)
        monkeypatch.setenv("REPRO_CODEGEN_CACHE_DIR", str(tmp_path))
        plan = build_plan(catalog.matmul(4), strategy=Strategy.DUPLICATE)
        key = MultiprocessEngine._codegen_key(plan, {})
        assert isinstance(key, str) and key


# ---------------------------------------------------------------------------
# multi-process behavior: warm starts and concurrent writers
# ---------------------------------------------------------------------------

def _child_env(tmp_path, **extra):
    env = dict(os.environ)
    src = str(Path(repro.__file__).resolve().parents[1])
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    env["REPRO_CODEGEN_CACHE_DIR"] = str(tmp_path)
    env.pop("REPRO_CODEGEN_DISK", None)
    env.update(extra)
    return env


_WARM_CHILD = """
import json
from repro.core import Strategy, build_plan
from repro.lang.catalog import matmul
from repro.obs.metrics import MetricsRegistry, use_registry
from repro.obs.trace import Tracer, use_tracer
from repro.runtime import make_arrays, run_parallel

plan = build_plan(matmul(6), strategy=Strategy.DUPLICATE)
reg = MetricsRegistry()
tracer = Tracer()
with use_registry(reg), use_tracer(tracer):
    run_parallel(plan, initial=make_arrays(plan.model), scalars={},
                 backend="codegen")
spans = [s.name for s in tracer.spans
         if s.name in ("engine.codegen.emit", "engine.codegen.compile")]
print(json.dumps({
    "hit": reg.value("cache.disk.hit"),
    "store": reg.value("cache.disk.store"),
    "emitted": reg.value("engine.codegen.emitted"),
    "hot_spans": len(spans),
    "delegated": reg.value("engine.codegen.delegated"),
}))
"""


def _run_child(code, env, *args):
    proc = subprocess.run([sys.executable, "-c", code, *args],
                          capture_output=True, text=True, timeout=180,
                          env=env, cwd=str(Path(repro.__file__).parents[2]))
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_second_process_serves_kernels_from_disk(tmp_path):
    """The warm-process promise: cold emits + persists, warm unmarshals
    -- a disk hit and zero emit/compile spans in the second process."""
    env = _child_env(tmp_path)
    cold = json.loads(_run_child(_WARM_CHILD, env))
    assert cold["delegated"] == 0
    assert cold["emitted"] >= 1
    assert cold["store"] >= 1
    warm = json.loads(_run_child(_WARM_CHILD, env))
    assert warm["delegated"] == 0
    assert warm["hit"] >= 1
    assert warm["emitted"] == 0
    assert warm["hot_spans"] == 0


_HAMMER_CHILD = """
import sys
from pathlib import Path
from repro.runtime.engine.codegen.diskcache import DiskKernelCache

cache = DiskKernelCache(Path(sys.argv[1]), cap_bytes=2048)
for i in range(60):
    key = "k%d" % (i % 10)
    cache.store(key, "x = %d\\n" % i, b"\\x00" * 120)
    code, src = cache.load(key)
    assert src is not None, key
print("ok")
"""


def test_two_processes_hammer_one_cache_dir(tmp_path):
    """Concurrent store/load/evict churn from two processes must never
    tear the manifest or strand payload files (flock serialization)."""
    env = _child_env(tmp_path)
    procs = [subprocess.Popen(
        [sys.executable, "-c", _HAMMER_CHILD, str(tmp_path)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env)
        for _ in range(2)]
    for p in procs:
        out, err = p.communicate(timeout=180)
        assert p.returncode == 0, err
        assert out.strip() == "ok"
    m = json.loads((tmp_path / "manifest.json").read_text())
    assert m["version"] == 1
    for key in m["entries"]:
        assert (tmp_path / f"{key}.py").exists(), key


# ---------------------------------------------------------------------------
# the auto engine's choice
# ---------------------------------------------------------------------------

_CHOICE_CHILD = """
import sys
from repro.core import build_plan
from repro.lang import catalog
from repro.runtime.engine.auto import choose_backend

assert choose_backend(build_plan(catalog.l3()))[0] == "codegen"
tiers = [m for m in sys.modules
         if m in ("repro.runtime.engine.vectorized",
                  "repro.runtime.engine.multiproc")]
assert not tiers, tiers
"""


class TestAutoChoice:
    """``auto`` runs every plan on codegen, the tier the ledger measures
    fastest; no size threshold, core count or numpy probe moves it."""

    def test_small_plan_runs_on_codegen_and_counts_the_choice(self):
        plan = build_plan(catalog.l2(), strategy=Strategy.DUPLICATE)
        initial = make_arrays(plan.model)
        reg, tracer = MetricsRegistry(), Tracer()
        with use_registry(reg), use_tracer(tracer):
            res = run_parallel(plan, initial=initial, scalars=SCALARS,
                               backend="auto")
        assert res.backend == "codegen"
        assert reg.value("engine.auto.choice.codegen") == 1
        (evt,) = [e for e in tracer.events if e.name == "engine.auto.choice"]
        assert evt.attributes["chosen"] == "codegen"
        assert evt.attributes["reason"] == choose_backend(plan)[1]
        assert "fastest measured tier" in evt.attributes["reason"]

    @pytest.mark.parametrize("n,strategy", [
        (14, Strategy.NONDUPLICATE),    # one block, 2 744 iterations
        (8, Strategy.DUPLICATE),        # 64 blocks
    ], ids=["midsize-one-block", "many-blocks"])
    @pytest.mark.parametrize("cores", [1, 8])
    def test_every_shape_and_core_count_stays_on_codegen(
            self, n, strategy, cores, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: cores)
        plan = build_plan(catalog.matmul(n), strategy=strategy)
        name, reason = choose_backend(plan)
        assert name == "codegen"
        assert f"{n ** 3} iterations" in reason
        assert f"{len(plan.blocks)} blocks" in reason

    def test_numpy_free_midsize_stays_on_codegen(self, monkeypatch):
        monkeypatch.setattr(npc, "np", None)
        plan = build_plan(catalog.matmul(14), strategy=Strategy.NONDUPLICATE)
        assert choose_backend(plan)[0] == "codegen"

    def test_midsize_one_block_run_is_bit_identical_to_interp(self):
        nest = catalog.matmul(14)
        with repro.Session(nest, strategy="nonduplicate") as session:
            assert len(session.plan().blocks) == 1
            got = session.run(backend="auto")
            want = session.run(backend="interp")
        assert (got.backend, want.backend) == ("codegen", "interp")
        assert session.registry.value("engine.auto.choice.codegen") == 1
        assert got.executed_iterations == want.executed_iterations == 14 ** 3
        assert got.write_stamps == want.write_stamps
        for blk, mem in want.memories.items():
            assert got.memories[blk].values == mem.values
            assert (got.memories[blk].reads, got.memories[blk].writes) == \
                (mem.reads, mem.writes)

    def test_the_thresholds_are_gone_from_source_and_docs(self):
        root = Path(__file__).resolve().parents[2]
        hits = [str(p) for d in ("src", "docs")
                for p in (root / d).rglob("*")
                if p.suffix in (".py", ".md")
                and "REPRO_AUTO_" in p.read_text()]
        assert hits == []

    def test_choosing_imports_no_other_tier(self, tmp_path):
        _run_child(_CHOICE_CHILD, _child_env(tmp_path))


# ---------------------------------------------------------------------------
# the per-plan side-car
# ---------------------------------------------------------------------------

class TestSidecar:
    def test_failed_geometry_build_leaves_no_hollow_entry(self, monkeypatch):
        """At e77338e the empty geometry dict was published before the
        build returned: a ``MemoryError`` once meant ``KeyError:
        'programs'`` on every later run of the plan."""
        from repro.runtime.engine.codegen import engine

        build, calls = engine._build_geometry, []

        def dies_once(plan):
            calls.append(plan)
            if len(calls) == 1:
                raise MemoryError("no room for the tables")
            return build(plan)

        monkeypatch.setattr(engine, "_build_geometry", dies_once)
        plan = build_plan(catalog.l5())
        with pytest.raises(MemoryError):
            run_parallel(plan, backend="codegen")
        reg = MetricsRegistry()
        with use_registry(reg):
            assert run_parallel(plan, backend="codegen").ok
            assert run_parallel(plan, backend="codegen").ok
        assert reg.value("engine.codegen.runs") == 2
        assert len(calls) == 2                  # built once, then a hit

    def test_unsupported_is_remembered_not_rederived(self, monkeypatch):
        from repro.runtime.engine.codegen import engine

        build, calls = engine._build_geometry, []
        monkeypatch.setattr(engine, "_build_geometry",
                            lambda plan: calls.append(plan) or build(plan))
        plan = build_plan(catalog.l2(), strategy=Strategy.DUPLICATE)
        reg = MetricsRegistry()
        with use_registry(reg):
            for _ in range(3):
                assert run_parallel(plan, backend="codegen").ok
        assert reg.value("engine.codegen.delegated") == 3
        assert len(calls) == 1

    def test_remembered_refusal_holds_no_run(self):
        """What is remembered is the refusal's type and text.  The
        raised exception itself would hold every frame it passed
        through -- ``run_blocks``'s, so the run's memories and store --
        until the plan's next run."""
        import gc
        import weakref

        plan = build_plan(catalog.l2(), strategy=Strategy.DUPLICATE)
        result = run_parallel(plan, backend="codegen")
        memory = weakref.ref(result.memories[0])
        del result
        gc.collect()
        assert memory() is None

    def test_rewritten_plan_gets_a_new_layout_and_geometry(self):
        """Plans are mutable at the container level; tables derived
        from the blocks a plan had must not outlive them."""
        import dataclasses

        from repro.machine.memory import RemoteAccessError

        plan = build_plan(catalog.l1())
        reg = MetricsRegistry()
        with use_registry(reg):
            assert run_parallel(plan, backend="codegen").ok
            db0 = plan.data_blocks["A"][0]
            victim = sorted(db0.elements)[0]
            plan.data_blocks["A"][0] = dataclasses.replace(
                db0, elements=db0.elements - {victim})
            with pytest.raises(RemoteAccessError):
                run_parallel(plan, backend="codegen")
            plan.data_blocks["A"][0] = db0
            assert run_parallel(plan, backend="codegen").ok
        assert reg.value("engine.codegen.runs") == 2
        assert reg.value("engine.codegen.uncertified") == 1


# ---------------------------------------------------------------------------
# chaos determinism with codegen store kernels in the workers
# ---------------------------------------------------------------------------

@pytest.mark.skipif(not shm_available(),
                    reason="shared-memory store unavailable")
def test_chaos_bit_identical_with_codegen_store_kernels(tmp_path,
                                                        monkeypatch):
    """Crashing workers mid-run must not dent bit-identity when the
    leases carry a codegen key: respawned workers re-attach the kernel
    from the shared on-disk cache and republish identical bytes."""
    monkeypatch.setenv("REPRO_MP_WORKERS", "2")
    monkeypatch.delenv("REPRO_CODEGEN_DISK", raising=False)
    monkeypatch.setenv("REPRO_CODEGEN_CACHE_DIR", str(tmp_path))
    plan = build_plan(catalog.dft(), strategy=Strategy.DUPLICATE)
    initial = make_arrays(plan.model)
    golden = run_parallel(plan, initial=initial, scalars=SCALARS,
                          backend="interp")
    gm = merge_copies(golden, initial)
    reg = MetricsRegistry()
    initial2 = make_arrays(plan.model)
    with use_registry(reg):
        got = run_parallel(plan, initial=initial2, scalars=SCALARS,
                           backend="multiprocess",
                           chaos="crash-prob=0.3,seed=8")
    m = merge_copies(got, initial2)
    assert set(m) == set(gm)
    for name in gm:
        assert m[name] == gm[name], name
    assert got.write_stamps == golden.write_stamps
    assert got.executed_iterations == golden.executed_iterations
    assert got.skipped_computations == golden.skipped_computations
    assert got.remote_accesses == 0
    # the workers actually ran the specialized kernel, not the fallback
    assert reg.value("engine.codegen.store_kernels") > 0
