"""Engine resolution: fallback chains, availability errors, the default."""

import pytest

from repro.runtime.engine import (
    BackendUnavailable,
    available_backends,
    get_engine,
    resolve_engine,
)
from repro.runtime.engine.base import DEFAULT_BACKEND
from repro.runtime.engine.compiled import CompiledEngine
from repro.runtime.engine.interp import InterpreterEngine
from repro.runtime.engine.multiproc import MultiprocessEngine
from repro.runtime.engine.vectorized import VectorizedEngine


class TestFallbackChains:
    def test_declared_chain_terminates_at_interp(self):
        seen = set()
        engine = get_engine("multiprocess")
        while engine.fallback is not None:
            assert engine.name not in seen, "fallback cycle"
            seen.add(engine.name)
            engine = get_engine(engine.fallback)
        assert engine.name == "interp"

    def test_unavailable_tier_degrades_to_fallback(self, monkeypatch):
        monkeypatch.setattr(VectorizedEngine, "is_available",
                            classmethod(lambda cls: False))
        assert resolve_engine("vectorized").name == "compiled"

    def test_two_unavailable_tiers_degrade_twice(self, monkeypatch):
        monkeypatch.setattr(MultiprocessEngine, "is_available",
                            classmethod(lambda cls: False))
        monkeypatch.setattr(CompiledEngine, "is_available",
                            classmethod(lambda cls: False))
        assert resolve_engine("multiprocess").name == "interp"

    def test_available_tier_resolves_to_itself(self):
        assert resolve_engine("compiled").name == "compiled"

    def test_resolution_is_traced(self, monkeypatch):
        from repro.obs import Tracer, use_tracer

        monkeypatch.setattr(VectorizedEngine, "is_available",
                            classmethod(lambda cls: False))
        tracer = Tracer()
        with use_tracer(tracer):
            resolve_engine("vectorized")
        (s,) = tracer.find("engine.resolve")
        assert s.attributes["requested"] == "vectorized"
        assert s.attributes["resolved"] == "compiled"
        assert s.attributes["fallback_hops"] == 1


class TestBackendUnavailable:
    def test_unknown_backend_raises(self):
        with pytest.raises(BackendUnavailable, match="unknown backend"):
            resolve_engine("quantum")

    def test_dead_end_chain_raises(self, monkeypatch):
        monkeypatch.setattr(InterpreterEngine, "is_available",
                            classmethod(lambda cls: False))
        with pytest.raises(BackendUnavailable, match="no.*fallback"):
            resolve_engine("interp")

    def test_error_propagates_through_run_parallel(self, monkeypatch):
        from repro.core import build_plan
        from repro.lang import catalog
        from repro.runtime.parallel import run_parallel

        monkeypatch.setattr(InterpreterEngine, "is_available",
                            classmethod(lambda cls: False))
        with pytest.raises(BackendUnavailable):
            run_parallel(build_plan(catalog.l1()), backend="interp")

    def test_unavailable_backends_not_listed(self, monkeypatch):
        monkeypatch.setattr(MultiprocessEngine, "is_available",
                            classmethod(lambda cls: False))
        assert "multiprocess" not in available_backends()
        assert "interp" in available_backends()


class TestPrecedence:
    def test_default_when_nothing_chooses(self, monkeypatch):
        # the environment does not choose a backend; --backend /
        # backend= / Session(backend=) do
        monkeypatch.setenv("REPRO_BACKEND", "compiled")
        assert resolve_engine().name == DEFAULT_BACKEND
        assert resolve_engine(None).name == DEFAULT_BACKEND


TIERS = ["auto", "compiled", "codegen", "interp", "multiprocess",
         "vectorized"]


def _fresh(argv, **env):
    import os
    import subprocess
    import sys

    return subprocess.run([sys.executable, *argv], capture_output=True,
                          text=True, timeout=120,
                          env={**os.environ, **env})


class TestConcurrentRegistryLoad:
    def test_fresh_process_concurrent_first_resolutions(self):
        """A burst of first-ever get_engine() calls across threads (a
        fresh serving daemon's first request burst): every name is in
        the static table from the start, and each tier module is
        imported once, under the import lock."""
        script = (
            "import concurrent.futures\n"
            "from repro.runtime.engine.base import get_engine\n"
            "names = ['interp', 'compiled', 'codegen', 'vectorized',\n"
            "         'multiprocess', 'auto'] * 4\n"
            "with concurrent.futures.ThreadPoolExecutor(8) as pool:\n"
            "    engines = list(pool.map(get_engine, names))\n"
            "print(len(engines))\n"
        )
        proc = _fresh(["-c", script])
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "24"


class TestStaticRegistry:
    def test_backend_names_imports_no_tier(self):
        script = (
            "import sys\n"
            "from repro.runtime.engine import backend_names, get_engine\n"
            "print(backend_names())\n"
            "get_engine('interp')\n"
            "print(sorted(m.rpartition('.')[2] for m in sys.modules\n"
            "             if m.startswith('repro.runtime.engine.')))\n"
        )
        proc = _fresh(["-c", script])
        assert proc.returncode == 0, proc.stderr
        names, loaded = proc.stdout.splitlines()
        assert names == repr(TIERS)
        assert loaded == repr(["base", "interp"])  # one tier: the one asked

    def test_unknown_backend_lists_every_tier(self, tmp_path):
        with pytest.raises(BackendUnavailable,
                           match="known: " + ", ".join(TIERS)):
            get_engine("bogus")
        proc = _fresh(["-m", "repro", "verify", "--loop", "L1",
                       "--backend", "bogus"],
                      REPRO_BLACKBOX_DIR=str(tmp_path))
        assert proc.returncode == 2   # an input error, refused up front
        assert proc.stderr == ("repro: unknown backend 'bogus'; known: "
                               + ", ".join(TIERS) + ", all\n")
        assert list(tmp_path.iterdir()) == []
