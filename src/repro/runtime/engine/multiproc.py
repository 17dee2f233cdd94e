"""The multiprocess backend: blocks fanned out across worker processes.

Communication-freedom is exactly the property that makes this trivial:
iteration blocks touch disjoint written data, so each worker can
execute its share of blocks against its own copies of their local
memories with *zero* coordination, and the parent merges the results
back deterministically (units are merged in block order, and write
stamps are keyed by block index, so the merge is independent of worker
scheduling).

Dispatch is delegated to the fault-tolerant
:class:`~repro.runtime.scheduler.BlockScheduler`: blocks are leased to
workers in small batches with deadlines, lost or expired leases are
retried on surviving workers (safely -- block-disjointness is
re-asserted against the plan's partition metadata first), crashed pools
are respawned, and an active :class:`~repro.runtime.scheduler.FaultPlan`
(``--chaos`` / ``use_fault_plan``) injects worker crashes, delays
and lost results to exercise all of that on demand.

Each worker runs the ``compiled`` tier on its unit under its *own*
scoped tracer and metrics registry; the resulting spans, events and
metric deltas travel back with the lease result and are merged into the
parent's recorders (:mod:`repro.obs.aggregate`), so a Chrome trace of a
multiprocess run shows one lane per worker process anchored under the
``scheduler.run`` span.  A
:class:`~repro.machine.memory.RemoteAccessError` cannot cross a process
boundary (its constructor signature defeats pickling), so workers catch
it and return a marker; the parent re-raises the first one in block
order -- the same violation the interpreter would have hit first.

If a process pool cannot be created at all (sandboxes, missing fork),
or the scheduler's respawn budget collapses, the engine degrades to the
compiled tier in-process -- counted as ``engine.multiproc.degraded``
and diagnosed on stderr, so a ~1x "speedup" is explainable instead of
silent.  A :class:`~repro.runtime.scheduler.SchedulerError` (chaos the
recovery policy could not absorb) is *not* degraded: it propagates, so
non-recovery is an error, never a silent slow path.
"""

from __future__ import annotations

import os
import sys

from repro import config
from repro.runtime.engine.base import Engine
from repro.runtime.scheduler import (
    BlockScheduler,
    PoolCollapse,
    current_fault_plan,
)

_MAX_WORKERS = 8


def worker_count(nblocks: int) -> int:
    workers = config.get("REPRO_MP_WORKERS")
    if workers is not None:
        return max(1, min(workers, nblocks))
    return max(1, min(os.cpu_count() or 1, _MAX_WORKERS, nblocks))


class MultiprocessEngine(Engine):
    """Scheduled fan-out of independent blocks over a process pool."""

    name = "multiprocess"
    fallback = "compiled"

    @classmethod
    def is_available(cls) -> bool:
        try:
            import concurrent.futures  # noqa: F401
            import multiprocessing

            multiprocessing.cpu_count()
            return True
        except (ImportError, NotImplementedError):  # pragma: no cover
            return False

    def _degrade(self, exc, plan, memories, result, initial,
                 scalars) -> None:
        """No process pool in this environment: run in-process instead,
        but say so -- a silent fallback reads as a broken speedup."""
        from repro.obs.metrics import current_registry
        from repro.obs.trace import current_tracer

        reason = f"{type(exc).__name__}: {exc}"
        current_registry().inc("engine.multiproc.degraded")
        current_tracer().event("engine.multiproc.degraded",
                               category="engine", coarse="error",
                               reason=reason)
        print(f"repro: multiprocess pool unavailable ({reason}); "
              "degrading to the compiled tier in-process", file=sys.stderr)
        self.delegate().run_blocks(plan, memories, result, initial,
                                   scalars)

    def _make_store(self, plan, memories, scalars):
        """A SharedBlockStore for by-descriptor leases, or None.

        None (the by-value copy-through path) when shared memory is off
        (``REPRO_NO_SHM``, no numpy, no ``shared_memory`` module), when
        the nest cannot be lowered to a store kernel, or when segment
        creation itself fails -- the store is an optimization, never a
        requirement.
        """
        from repro.obs.trace import current_tracer
        from repro.runtime.blockstore import SharedBlockStore, shm_available
        from repro.runtime.blockstore.worker import slot_target
        from repro.runtime.engine.lowering import (
            KernelCompileError,
            iteration_kernel,
        )

        if not shm_available():
            return None
        try:
            # lowerable? (the workers' own cache key: a by-value lease
            # or a later run in this process finds it compiled)
            iteration_kernel(plan.nest, scalars, slot_target,
                             plan.model.space.rank_strides(),
                             plan.live is not None, plan.psi)
            store = SharedBlockStore(plan, memories)
            store.codegen_key = self._codegen_key(plan, scalars)
            return store
        except KernelCompileError:
            return None
        except Exception as exc:  # pragma: no cover - shm-less platforms
            current_tracer().event("engine.shm.unavailable",
                                   category="engine",
                                   reason=f"{type(exc).__name__}: {exc}")
            return None

    @staticmethod
    def _codegen_key(plan, scalars):
        """The codegen store-kernel key for the descriptor, or None.

        Emits (and persists) the specialized kernel once in the parent
        so workers attach by key; anything unsupported -- including an
        unset certificate -- simply leaves the generic dict kernel in
        charge.  Disabled alongside the disk cache: without persistence
        a spawn-fresh worker would re-emit per process.
        """
        try:
            from repro.runtime.engine.codegen.diskcache import get_disk_cache
            from repro.runtime.engine.codegen.storegen import (
                prepare_store_kernel,
            )

            if get_disk_cache() is None:
                return None
            return prepare_store_kernel(plan, dict(scalars))
        except Exception:  # pragma: no cover - codegen is optional here
            return None

    def run_blocks(self, plan, memories, result, initial, scalars) -> None:
        from repro.obs.metrics import current_registry
        from repro.obs.trace import current_tracer
        from repro.runtime.pool import current_pool

        if not plan.blocks:
            self.delegate().run_blocks(plan, memories, result, initial,
                                       scalars)
            return
        if len(plan.blocks) == 1:
            # a single block has nothing to fan out: the pool would be
            # pure overhead, so run the compiled tier in-process -- an
            # expected fast path, not a degradation
            current_registry().inc("engine.multiproc.single_block")
            current_tracer().event("engine.multiproc.single_block",
                                   category="engine", blocks=1)
            self.delegate().run_blocks(plan, memories, result, initial,
                                       scalars)
            return
        nw = worker_count(len(plan.blocks))
        store = self._make_store(plan, memories, dict(scalars))
        scheduler = BlockScheduler(
            plan, memories, scalars, workers=nw,
            faults=current_fault_plan(), store=store, pool=current_pool())
        try:
            scheduler.run(result)
        except (PoolCollapse, OSError, PermissionError, ValueError,
                RuntimeError, ImportError) as exc:
            # SchedulerError deliberately excluded: exhausting the retry
            # policy under chaos is a hard failure, not a fallback
            self._degrade(exc, plan, memories, result, initial, scalars)
        finally:
            if store is not None:
                store.close(unlink=True)
