"""The unified metrics registry: counters and gauges.

One registry holds every layer's counts behind one API: the plan cache
counts hits and misses directly;
:class:`~repro.runtime.parallel.ParallelResult` (remote accesses,
loads, memory words) and
:class:`~repro.machine.machine.MachineStats` (makespan, per-processor
costs) keep their public fields and additionally *publish* into the
current registry, so one run can be read end-to-end (compile, execute,
simulate) from a single snapshot.

Metric names are dotted (``runtime.remote_accesses``); the Prometheus
exporter sanitizes them.  Conventions:

- counters accumulate over the registry's lifetime (``cache.hit``);
- gauges hold the *most recent* observation (``runtime.remote_accesses``
  is the last parallel run's count, exactly equal to
  ``ParallelResult.remote_accesses``).

Durations are not metrics: each is the span that timed it (a pass is
its ``pass:<name>`` span, :mod:`repro.obs.trace`).

Notable families: ``engine.shm.*`` (the shared-memory block store:
``stores`` / ``attaches`` / ``unlinks`` counters, ``bytes`` gauge) and
``engine.pool.*`` (worker-pool lifecycle: ``spawns`` / ``reuses``
counters, ``workers`` gauge) instrument the multiprocess path;
``engine.multiproc.single_block`` counts the expected in-process
fast path for one-block plans, distinct from
``engine.multiproc.degraded``.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Any, Optional, Union

from repro.ctxstack import ScopeStack


@dataclass
class Counter:
    """Monotonically increasing count."""

    name: str
    value: Union[int, float] = 0

    kind = "counter"

    def inc(self, n: Union[int, float] = 1) -> None:
        if n < 0:
            raise ValueError(f"counter {self.name} cannot decrease")
        self.value += n


@dataclass
class Gauge:
    """Last observed value (may go up or down)."""

    name: str
    value: float = 0.0

    kind = "gauge"

    def set(self, v: float) -> None:
        self.value = v


Metric = Union[Counter, Gauge]


class MetricsRegistry:
    """A named collection of metrics with create-on-first-use helpers."""

    def __init__(self) -> None:
        self._metrics: dict[str, Metric] = {}
        self._lock = threading.Lock()

    # -- creation ---------------------------------------------------------
    def _get_or_make(self, name: str, cls) -> Metric:
        m = self._metrics.get(name)
        if m is None:
            with self._lock:
                m = self._metrics.get(name)
                if m is None:
                    m = cls(name=name)
                    self._metrics[name] = m
        if not isinstance(m, cls):
            raise TypeError(
                f"metric {name!r} already registered as {m.kind}")
        return m

    def counter(self, name: str) -> Counter:
        return self._get_or_make(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get_or_make(name, Gauge)

    # -- one-line recording helpers ---------------------------------------
    def inc(self, name: str, n: Union[int, float] = 1) -> None:
        self.counter(name).inc(n)

    def set(self, name: str, v: float) -> None:
        self.gauge(name).set(v)

    # -- queries ----------------------------------------------------------
    def get(self, name: str) -> Optional[Metric]:
        return self._metrics.get(name)

    def value(self, name: str, default: float = 0) -> Union[int, float]:
        m = self._metrics.get(name)
        return default if m is None else m.value

    def names(self) -> list[str]:
        return sorted(self._metrics)

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def __len__(self) -> int:
        return len(self._metrics)

    def snapshot(self) -> dict[str, Any]:
        """JSON-ready dump of every metric, sorted by name: what a
        ``--trace`` document keeps as ``otherData.metrics``, and all
        :func:`~repro.obs.export.prometheus_text` reads."""
        return {name: {"kind": self._metrics[name].kind,
                       "value": self._metrics[name].value}
                for name in self.names()}


#: Process-wide default registry.  Unlike the tracer there is no null
#: tier: metric updates are cheap, never per-iteration, and a default
#: live registry means library callers can always read one.
METRICS = MetricsRegistry()

_registry_stack = ScopeStack(METRICS)


def current_registry() -> MetricsRegistry:
    """The registry instrumented call sites publish to.

    Per-thread: a scope entered on one thread (a daemon worker running
    one request) is invisible to every other thread, which keeps
    concurrent requests from publishing into each other's registries.
    """
    return _registry_stack.top(METRICS)


def use_registry(registry: MetricsRegistry):
    """Scope the active registry (e.g. per CLI command or request)."""
    return _registry_stack.scoped(registry)
