"""Persistent worker pools for the multiprocess engine.

Spawning a :class:`~concurrent.futures.ProcessPoolExecutor` per run was
one of the two fixed costs that made the multiprocess tier slower than
the interpreter on small-to-medium plans (the other -- shipping the
full plan with every lease -- is eliminated by
:mod:`repro.runtime.blockstore`).  :class:`WorkerPool` wraps an
executor with a *lazy, reusable* lifecycle:

- the executor is created on first :meth:`acquire` and reused by every
  later acquire that needs no more workers;
- :meth:`respawn` replaces a broken executor (a crashed worker poisons
  the whole pool) -- the scheduler calls it instead of building its own
  pool, so chaos respawn semantics are unchanged;
- :meth:`shutdown` releases the processes; the pool stays usable and
  simply respawns on the next acquire, so a closed
  :class:`~repro.api.Session` that runs again still works.

``use_pool`` scopes a pool over a region of code (the same innermost-
wins pattern as ``use_tracer`` / ``use_fault_plan``);
:class:`~repro.api.Session` scopes its own pool over every operation,
which is what makes the pool *session-scoped*: workers survive across
``Session.run()`` calls and keep their warm caches (attached shared-
memory segments, unpickled plans, compiled kernels).  With no ambient
pool the scheduler builds an ephemeral one per run -- exactly the old
behavior, which keeps pool-failure injection in tests working.

The executor class is resolved dynamically through
``concurrent.futures`` so tests can monkeypatch it.
"""

from __future__ import annotations

import concurrent.futures
from typing import Optional

from repro.ctxstack import ScopeStack
from repro.obs.trace import current_tracer


class WorkerPool:
    """A lazily created, reusable process pool.

    ``generation`` counts executor (re)creations -- a cheap way for
    tests (and the scheduler's observability) to tell reuse from
    respawn.
    """

    def __init__(self, name: str = "") -> None:
        self.name = name
        self.generation = 0
        self._executor = None
        self._workers = 0

    @property
    def workers(self) -> int:
        """Worker slots of the live executor (0 when none is alive)."""
        return self._workers if self._executor is not None else 0

    def acquire(self, workers: int):
        """An executor with at least ``workers`` slots.

        Reuses the live executor when it is healthy and big enough;
        otherwise (first use, broken pool, or a larger plan) respawns.
        May raise whatever the executor constructor raises -- callers
        treat that as pool unavailability.
        """
        from repro.obs.metrics import current_registry

        ex = self._executor
        if (ex is not None and not getattr(ex, "_broken", False)
                and workers <= self._workers):
            current_registry().inc("engine.pool.reuses")
            return ex
        return self.respawn(workers)

    def respawn(self, workers: Optional[int] = None):
        """Discard any live executor and create a fresh one."""
        from repro.obs.metrics import current_registry

        workers = workers if workers is not None else max(1, self._workers)
        self._discard()
        # resolved dynamically so tests can monkeypatch the executor
        self._executor = concurrent.futures.ProcessPoolExecutor(
            max_workers=workers)
        self._workers = workers
        self.generation += 1
        reg = current_registry()
        reg.inc("engine.pool.spawns")
        reg.set("engine.pool.workers", workers)
        current_tracer().event("pool.spawn", category="engine", coarse=True,
                               workers=workers, generation=self.generation)
        return self._executor

    def _discard(self) -> None:
        ex, self._executor = self._executor, None
        if ex is not None:
            try:
                ex.shutdown(wait=False, cancel_futures=True)
            except Exception:  # pragma: no cover - defensive
                pass

    def shutdown(self) -> None:
        """Release the worker processes (the pool itself stays usable:
        the next :meth:`acquire` simply respawns)."""
        if self._executor is not None:
            current_tracer().event("pool.shutdown", category="engine",
                                   coarse=True, generation=self.generation)
        self._discard()
        self._workers = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = f"{self._workers} workers" if self._executor else "idle"
        return f"WorkerPool({self.name or hex(id(self))}: {state}, " \
               f"gen {self.generation})"


_ACTIVE = ScopeStack()


def current_pool() -> Optional[WorkerPool]:
    """The innermost scoped pool on this thread, or None (schedulers
    then build an ephemeral pool per run)."""
    return _ACTIVE.top(None)


def use_pool(pool: WorkerPool):
    """Scope ``pool`` as the ambient worker pool for a region of code."""
    return _ACTIVE.scoped(pool)
