"""The :class:`Engine` interface and the backend registry.

An engine implements one operation, :meth:`Engine.run_blocks`: execute
every iteration block of a :class:`~repro.core.plan.PartitionPlan` into
pre-allocated per-block :class:`~repro.machine.memory.LocalMemory`
regions, filling the :class:`~repro.runtime.parallel.ParallelResult`
counters and write stamps (the ``run_parallel`` entry point).  The
sequential run is not an engine operation: it is the golden model
(:func:`repro.runtime.seq.run_sequential`), which every tier is checked
against and which therefore has no tiers of its own.

Backends are declared in one static table (canonical name, defining
module, class); :func:`get_engine` imports exactly the tier it
resolves.  :func:`resolve_engine` walks the declared ``fallback`` chain
until it finds an available tier, so ``backend="vectorized"`` on a
numpy-free interpreter silently degrades to ``compiled`` (and
ultimately ``interp``) instead of failing.
"""

from __future__ import annotations

from importlib import import_module
from typing import TYPE_CHECKING, Mapping, Optional

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.plan import PartitionPlan
    from repro.machine.memory import LocalMemory
    from repro.runtime.arrays import DataSpace
    from repro.runtime.parallel import ParallelResult

#: Default backend when the caller does not choose.
DEFAULT_BACKEND = "interp"


class BackendUnavailable(RuntimeError):
    """The requested backend (and its whole fallback chain) cannot run."""


class Engine:
    """One execution backend; subclasses override :meth:`run_blocks`."""

    #: canonical registry name
    name: str = "?"
    #: backend to degrade to when this one is unavailable / unsupported
    fallback: Optional[str] = None

    @classmethod
    def is_available(cls) -> bool:
        """Can this backend run at all in this interpreter?"""
        return True

    # -- execution --------------------------------------------------------
    def run_blocks(self, plan: "PartitionPlan",
                   memories: dict[int, "LocalMemory"],
                   result: "ParallelResult",
                   initial: dict[str, "DataSpace"],
                   scalars: Mapping[str, float]) -> None:
        raise NotImplementedError

    # -- chaining ---------------------------------------------------------
    def delegate(self) -> "Engine":
        """The next engine down the fallback chain (interp terminates it)."""
        return get_engine(self.fallback or DEFAULT_BACKEND)


#: canonical name -> (defining module, class).  The listing order is what
#: :func:`available_backends` callers print (``--backend all``, the audit
#: dashboard), so it is part of the output contract.
_BACKENDS: dict[str, tuple[str, str]] = {
    "auto": ("auto", "AutoEngine"),
    "compiled": ("compiled", "CompiledEngine"),
    "codegen": ("codegen.engine", "CodegenEngine"),
    "interp": ("interp", "InterpreterEngine"),
    "multiprocess": ("multiproc", "MultiprocessEngine"),
    "vectorized": ("vectorized", "VectorizedEngine"),
}


def _engine_class(canon: str) -> type:
    """Import the one tier module ``canon`` names; -> its engine class."""
    module, cls = _BACKENDS[canon]
    return getattr(import_module(f"repro.runtime.engine.{module}"), cls)


def backend_names() -> list[str]:
    """Canonical names of every backend (imports no tier)."""
    return list(_BACKENDS)


def unknown_backend(name: str, cross_check: bool = True) -> Optional[str]:
    """Why a request may not name ``name`` as its backend, or None: it
    must be a registry name or, where the caller can ``cross_check``
    (verify, audit: every available backend against the others),
    ``all``.  For refusing input at the edge -- the command line, a
    wire frame -- before any work is done."""
    if name.strip().lower() in _BACKENDS or (cross_check and name == "all"):
        return None
    known = [*_BACKENDS, "all"] if cross_check else list(_BACKENDS)
    return f"unknown backend {name!r}; known: {', '.join(known)}"


def available_backends() -> list[str]:
    """Backends whose availability check passes right now (this one
    imports every tier: availability is the tier's own answer)."""
    return [name for name in _BACKENDS
            if _engine_class(name).is_available()]


def get_engine(name: str) -> Engine:
    """A fresh engine instance for ``name`` (no fallback)."""
    refusal = unknown_backend(name, cross_check=False)
    if refusal:
        raise BackendUnavailable(refusal)
    return _engine_class(name.strip().lower())()


def resolve_engine(name: Optional[str] = None) -> Engine:
    """The engine for ``name`` (default :data:`DEFAULT_BACKEND`),
    degraded along the fallback chain until an available tier is found.

    Every resolution is traced as an ``engine.resolve`` span (requested
    vs. resolved backend, fallback hops) and counted as
    ``engine.resolved.<name>`` in the metrics registry.
    """
    from repro.obs.metrics import current_registry
    from repro.obs.trace import current_tracer

    requested = name or DEFAULT_BACKEND
    with current_tracer().span("engine.resolve", category="engine",
                               requested=requested) as sp:
        engine = get_engine(requested)
        hops = 0
        while not engine.is_available():
            if engine.fallback is None or hops > len(_BACKENDS):
                raise BackendUnavailable(
                    f"backend {requested!r} is unavailable and has no "
                    "fallback")
            engine = get_engine(engine.fallback)
            hops += 1
        sp.set(resolved=engine.name, fallback_hops=hops)
        current_registry().inc(f"engine.resolved.{engine.name}")
    return engine
