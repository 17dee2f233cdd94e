"""The unified metrics registry: counters, gauges, histograms.

One registry holds every layer's numbers behind one API: the pass
manager observes pass durations and the plan cache counts hits and
misses directly; :class:`~repro.runtime.parallel.ParallelResult`
(remote accesses, loads, memory words) and
:class:`~repro.machine.machine.MachineStats` (makespan, per-processor
costs) keep their public fields and additionally *publish* into the
current registry, so one run can be read end-to-end (compile, execute,
simulate) from a single snapshot.

Metric names are dotted (``runtime.remote_accesses``); the Prometheus
exporter sanitizes them.  Conventions:

- counters accumulate over the registry's lifetime (``cache.hit``);
- gauges hold the *most recent* observation (``runtime.remote_accesses``
  is the last parallel run's count, exactly equal to
  ``ParallelResult.remote_accesses``);
- histograms record count/sum/min/max plus fixed log-spaced buckets
  (pass wall times land in ``pipeline.pass.seconds.<name>``).

Notable families: ``engine.shm.*`` (the shared-memory block store:
``stores`` / ``attaches`` / ``unlinks`` counters, ``bytes`` gauge) and
``engine.pool.*`` (worker-pool lifecycle: ``spawns`` / ``reuses``
counters, ``workers`` gauge) instrument the zero-copy multiprocess
path; ``engine.multiproc.single_block`` counts the expected in-process
fast path for one-block plans, distinct from
``engine.multiproc.degraded``.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field
from typing import Any, Optional, Union

from repro.ctxstack import ScopeStack

#: Log-spaced histogram bucket upper bounds, in the metric's own unit
#: (seconds for timings): 1us .. 100s.
DEFAULT_BUCKETS = tuple(10.0 ** e for e in range(-6, 3))

#: Raw observations retained per histogram for exact small-sample
#: quantiles.  While ``count <= SAMPLE_CAP`` every observation is still
#: held, so quantiles are exact nearest-rank values; past the cap the
#: histogram falls back to bucket interpolation (which is where the
#: interpolation error is amortized away by volume anyway).
SAMPLE_CAP = 64


@dataclass
class Counter:
    """Monotonically increasing count."""

    name: str
    help: str = ""
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
    help: str = ""
    value: float = 0.0

    kind = "gauge"

    def set(self, v: float) -> None:
        self.value = v

    def inc(self, n: float = 1) -> None:
        self.value += n


@dataclass
class Histogram:
    """Count/sum/min/max plus fixed cumulative buckets."""

    name: str
    help: str = ""
    buckets: tuple[float, ...] = DEFAULT_BUCKETS
    counts: list[int] = field(default_factory=list)
    count: int = 0
    total: float = 0.0
    min: float = math.inf
    max: float = -math.inf
    samples: list[float] = field(default_factory=list)

    kind = "histogram"

    def __post_init__(self) -> None:
        if not self.counts:
            self.counts = [0] * (len(self.buckets) + 1)  # +inf bucket

    def observe(self, v: float) -> None:
        self.count += 1
        self.total += v
        if v < self.min:
            self.min = v
        if v > self.max:
            self.max = v
        if len(self.samples) < SAMPLE_CAP:
            self.samples.append(v)
        for i, le in enumerate(self.buckets):
            if v <= le:
                self.counts[i] += 1
                return
        self.counts[-1] += 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    @property
    def value(self) -> float:
        """Snapshot scalar: the running sum (see :meth:`MetricsRegistry.value`)."""
        return self.total

    @property
    def exact(self) -> bool:
        """True while every observation is still retained in
        ``samples`` -- quantiles are exact nearest-rank values."""
        return 0 < self.count <= len(self.samples)

    def quantile(self, q: float) -> float:
        """Quantile estimate: exact nearest-rank on small samples,
        bucket-interpolated (Prometheus-style) past ``SAMPLE_CAP``.

        With few observations, interpolating inside a log-spaced bucket
        is badly wrong (a single 5ms pass in the 1..10ms bucket used to
        report p95 near the bucket midpoint, not 5ms); while every raw
        value is still retained the nearest-rank value is returned
        instead, which is exact.  For large counts the target rank is
        located in the cumulative bucket counts and the value
        interpolated linearly within that bucket; the open ends are
        clamped to the observed ``min``/``max``, so ``q=0`` and ``q=1``
        are exact and every estimate stays inside the observed range.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile {q} outside [0, 1]")
        if self.count == 0:
            return 0.0
        if self.exact:
            ordered = sorted(self.samples)
            rank = max(1, math.ceil(q * self.count))  # nearest-rank
            return ordered[rank - 1]
        target = q * self.count
        cum = 0
        for i, n in enumerate(self.counts):
            if n == 0:
                continue
            prev = cum
            cum += n
            if cum >= target:
                lo = self.min if i == 0 else self.buckets[i - 1]
                hi = self.max if i >= len(self.buckets) else self.buckets[i]
                lo = max(lo, self.min)
                hi = min(hi, self.max)
                if hi <= lo:
                    return lo
                frac = (target - prev) / n
                return lo + (hi - lo) * frac
        return self.max

    def merge(self, other: "Histogram") -> None:
        """Fold another histogram (same buckets) into this one.

        Used when re-absorbing per-worker registries after a
        multiprocess fan-out (:mod:`repro.obs.aggregate`).
        """
        if other.buckets != self.buckets:
            raise ValueError(
                f"histogram {self.name}: bucket mismatch on merge")
        for i, n in enumerate(other.counts):
            self.counts[i] += n
        self.count += other.count
        self.total += other.total
        self.samples = (self.samples + other.samples)[:SAMPLE_CAP]
        if other.count:
            self.min = min(self.min, other.min)
            self.max = max(self.max, other.max)


Metric = Union[Counter, Gauge, Histogram]


class MetricsRegistry:
    """A named collection of metrics with create-on-first-use helpers."""

    def __init__(self) -> None:
        self._metrics: dict[str, Metric] = {}
        self._lock = threading.Lock()

    # -- creation ---------------------------------------------------------
    def _get_or_make(self, name: str, cls, help: str = "") -> Metric:
        m = self._metrics.get(name)
        if m is None:
            with self._lock:
                m = self._metrics.get(name)
                if m is None:
                    m = cls(name=name, help=help)
                    self._metrics[name] = m
        if not isinstance(m, cls):
            raise TypeError(
                f"metric {name!r} already registered as {m.kind}")
        return m

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get_or_make(name, Counter, help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._get_or_make(name, Gauge, help)

    def histogram(self, name: str, help: str = "") -> Histogram:
        return self._get_or_make(name, Histogram, help)

    # -- one-line recording helpers ---------------------------------------
    def inc(self, name: str, n: Union[int, float] = 1) -> None:
        self.counter(name).inc(n)

    def set(self, name: str, v: float) -> None:
        self.gauge(name).set(v)

    def observe(self, name: str, v: float) -> None:
        self.histogram(name).observe(v)

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
        """JSON-ready dump of every metric, sorted by name."""
        out: dict[str, Any] = {}
        for name in self.names():
            m = self._metrics[name]
            if isinstance(m, Histogram):
                out[name] = {
                    "kind": m.kind,
                    "count": m.count,
                    "sum": m.total,
                    "min": None if m.count == 0 else m.min,
                    "max": None if m.count == 0 else m.max,
                    "mean": m.mean,
                    "p50": None if m.count == 0 else m.quantile(0.50),
                    "p95": None if m.count == 0 else m.quantile(0.95),
                    "p99": None if m.count == 0 else m.quantile(0.99),
                    "quantile_method": ("exact" if m.exact
                                        else "bucket-interpolated"),
                }
            else:
                out[name] = {"kind": m.kind, "value": m.value}
        return out

    def clear(self) -> None:
        with self._lock:
            self._metrics.clear()


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
