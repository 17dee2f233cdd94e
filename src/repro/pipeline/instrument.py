"""Per-pass instrumentation: wall time, call counts, named counters.

The pass manager reports every pass execution here via
:meth:`Instrumentation.record`; the plan cache reports hits and misses
via :meth:`Instrumentation.count`.  ``--timings`` on any CLI subcommand
prints :meth:`Instrumentation.timing_table`.

Everything recorded here is also published to the unified metrics
registry (:mod:`repro.obs.metrics`): pass timings as
``pipeline.pass.seconds.<name>`` histograms, counters under their own
names -- so one registry snapshot covers compile, execute and simulate.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.ctxstack import ScopeStack
from repro.obs.metrics import current_registry


@dataclass
class PassStats:
    """Accumulated timing for one named pass."""

    calls: int = 0
    seconds: float = 0.0

    @property
    def mean_seconds(self) -> float:
        return self.seconds / self.calls if self.calls else 0.0


class Instrumentation:
    """Accumulates pass timings and named counters."""

    def __init__(self) -> None:
        self.passes: dict[str, PassStats] = {}
        self.counters: dict[str, int] = {}

    # -- recording --------------------------------------------------------
    def record(self, name: str, seconds: float) -> None:
        from repro.obs.flight import flight

        stats = self.passes.setdefault(name, PassStats())
        stats.calls += 1
        stats.seconds += seconds
        current_registry().observe(f"pipeline.pass.seconds.{name}", seconds)
        flight().record("span", f"pass.{name}",
                        dur_us=round(seconds * 1e6, 1))

    def count(self, name: str, n: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + n
        current_registry().inc(name, n)

    def counter(self, name: str) -> int:
        return self.counters.get(name, 0)

    def reset(self) -> None:
        self.passes.clear()
        self.counters.clear()

    # -- reporting --------------------------------------------------------
    def total_seconds(self) -> float:
        return sum(s.seconds for s in self.passes.values())

    def timing_table(self) -> str:
        """A per-pass timing table plus counter lines (cache hits etc.).

        Deterministic: passes are sorted by total time (descending),
        ties broken by name; counters are sorted by name.
        """
        lines = [f"{'pass':<22} {'calls':>6} {'total(ms)':>10} {'mean(ms)':>10}"]
        if not self.passes:
            lines.append("(no passes recorded)")
        ordered = sorted(self.passes.items(),
                         key=lambda kv: (-kv[1].seconds, kv[0]))
        for name, st in ordered:
            lines.append(f"{name:<22} {st.calls:>6} {st.seconds * 1e3:>10.3f} "
                         f"{st.mean_seconds * 1e3:>10.3f}")
        total = self.total_seconds()
        lines.append(f"{'total':<22} {'':>6} {total * 1e3:>10.3f} {'':>10}")
        for name in sorted(self.counters):
            lines.append(f"counter {name}: {self.counters[name]}")
        return "\n".join(lines)


class Timer:
    """Context manager measuring one pass execution."""

    def __init__(self) -> None:
        self.seconds = 0.0

    def __enter__(self) -> "Timer":
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.seconds = time.perf_counter() - self._t0


#: Process-wide default sink; the CLI swaps in a fresh one under
#: ``--timings`` so the table covers exactly one command.
PIPELINE_METRICS = Instrumentation()

_metrics_stack = ScopeStack(PIPELINE_METRICS)


def current_metrics() -> Instrumentation:
    """The instrumentation new pipeline contexts default to (per thread)."""
    return _metrics_stack.top(PIPELINE_METRICS)


def use_metrics(instr: Instrumentation):
    """Scope the default instrumentation (e.g. per CLI command)."""
    return _metrics_stack.scoped(instr)
