"""Backend selection from the measured ledger (the ``auto`` tier).

``auto`` runs every plan on the codegen tier, because that is the tier
the performance ledger measures fastest on every shape it has: warm,
its per-plan kernels beat the vectorized tier's lock-step numpy lanes
on many small blocks and on one big block alike, and no committed run
shows a process pool paying for its fan-out (two workers are no faster
than one, ``runtime.multiprocess.scaling_w2``).  Plans codegen cannot
specialize fall down its own chain (compiled, then interp).  The rule
has no thresholds and no knobs; DESIGN.md carries the numbers and the
condition under which to re-open it.

Each pick is counted (``engine.auto.choice.<backend>``) and traced
with its reason, and the run's
:class:`~repro.runtime.parallel.ParallelResult` reports the *chosen*
backend, not ``auto``.
"""

from __future__ import annotations

from repro.runtime.engine.base import Engine, get_engine


def choose_backend(plan) -> tuple[str, str]:
    """-> (backend name, reason) for one plan."""
    total = sum(len(b.iterations) for b in plan.blocks)
    return "codegen", (f"fastest measured tier ({total} iterations, "
                       f"{len(plan.blocks)} blocks)")


class AutoEngine(Engine):
    """Dispatch to the tier the ledger measures fastest."""

    name = "auto"
    fallback = "codegen"

    def run_blocks(self, plan, memories, result, initial, scalars) -> None:
        from repro.obs.metrics import current_registry
        from repro.obs.trace import current_tracer

        chosen, reason = choose_backend(plan)
        engine = get_engine(chosen)
        while not engine.is_available():  # pragma: no cover - availability
            engine = engine.delegate()
        current_registry().inc(f"engine.auto.choice.{engine.name}")
        current_tracer().event("engine.auto.choice", category="engine",
                               chosen=engine.name, reason=reason)
        result.backend = engine.name
        engine.run_blocks(plan, memories, result, initial, scalars)
