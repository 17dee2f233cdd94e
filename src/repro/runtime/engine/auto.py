"""Size/geometry-aware backend selection (the real ``auto`` tier).

``auto`` used to be a registry shim that picked the highest *available*
tier regardless of the work; that loses badly at both ends -- a 16^2
nest pays a process pool's startup for nothing, a fan-out-sized nest
leaves the pool idle.  This engine inspects the plan before choosing:

- small nests (total iterations <= ``REPRO_AUTO_SMALL``, default 2048)
  run on the codegen tier: per-plan specialization beats every other
  tier's fixed setup at that size, and its kernels amortize via the
  on-disk cache anyway;
- otherwise the vectorized tier takes any plan it supports (lock-step
  numpy lanes are the fastest in-process execution we have);
- genuinely large multi-block plans (>= ``REPRO_AUTO_FANOUT``
  iterations, default 32768, at least two blocks and two cores) fan
  out across the process pool;
- everything else -- mid-sized, numpy-free, single-block -- stays on
  codegen, whose own fallback chain (compiled, then interp) absorbs
  unsupported plans.

The decision is observable: ``engine.auto.choice.<backend>`` counts
each pick, an ``engine.auto.choice`` event records the reason, and the
run's :class:`~repro.runtime.parallel.ParallelResult` reports the
*chosen* backend, not ``auto``.
"""

from __future__ import annotations

import os

from repro.runtime.engine.base import Engine, get_engine

#: Below this many total iterations, specialization always wins.
SMALL_ENV_VAR = "REPRO_AUTO_SMALL"
DEFAULT_SMALL = 2048

#: At or above this many total iterations, fan-out can pay for a pool.
FANOUT_ENV_VAR = "REPRO_AUTO_FANOUT"
DEFAULT_FANOUT = 32768


def _threshold(var: str, default: int) -> int:
    try:
        return int(os.environ.get(var, default))
    except ValueError:
        return default


def choose_backend(plan) -> tuple[str, str]:
    """-> (backend name, reason) for one plan."""
    total = sum(len(b.iterations) for b in plan.blocks)
    if total <= _threshold(SMALL_ENV_VAR, DEFAULT_SMALL):
        return "codegen", f"small nest ({total} iterations)"
    from repro.runtime.engine import vectorized

    if vectorized.VectorizedEngine.is_available() \
            and vectorized.supports_plan(plan):
        return "vectorized", f"vectorizable ({total} iterations)"
    from repro.runtime.engine.multiproc import MultiprocessEngine

    if (total >= _threshold(FANOUT_ENV_VAR, DEFAULT_FANOUT)
            and len(plan.blocks) > 1
            and (os.cpu_count() or 1) >= 2
            and MultiprocessEngine.is_available()):
        return "multiprocess", f"fan-out sized ({total} iterations, " \
                               f"{len(plan.blocks)} blocks)"
    return "codegen", f"mid-sized ({total} iterations)"


class AutoEngine(Engine):
    """Plan-inspecting dispatch to the cheapest adequate tier."""

    name = "auto"
    fallback = "codegen"

    def run_nest(self, nest, arrays, scalars, space) -> None:
        # sequential nests have no geometry to inspect; the codegen
        # tier's own chain (compiled -> interp) already picks well
        self.delegate().run_nest(nest, arrays, scalars, space)

    def run_blocks(self, plan, memories, result, initial, scalars,
                   strict: bool = True) -> None:
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
        engine.run_blocks(plan, memories, result, initial, scalars,
                          strict=strict)
