"""Cross-process observability aggregation.

Multiprocess workers run in their own interpreters: spans recorded
there and counters published there used to die with the worker.  This
module defines the picklable carrier (:class:`WorkerObs`) a worker
fills from its scoped :class:`~repro.obs.trace.Tracer` and
:class:`~repro.obs.metrics.MetricsRegistry`, and the parent-side merge
that re-homes everything into the live recorders:

- span/event ids are remapped through freshly reserved parent ids, so
  adopted spans never collide with local ones;
- each span and event keeps its worker ``pid`` (and worker-local
  ``tid``), so the Chrome trace export renders one lane per worker
  process;
- worker timestamps are worker-epoch-relative; the caller supplies the
  parent-clock offset (the fan-out span's start), which places worker
  activity inside the fan-out region of the parent timeline.  Offsets
  affect *placement* only -- durations and counts are exact;
- counters accumulate, gauges take the last worker's observation, and
  histograms merge bucket-wise
  (:meth:`~repro.obs.metrics.Histogram.merge`), so parent-side totals
  equal the sum over worker lanes.

Both lease flavors ship the same carrier: by-value workers record
``engine.block`` spans with ``backend="compiled"``, shared-memory store
workers with ``backend="shm"`` (plus ``engine.shm.attaches`` on their
first attach), so a Chrome trace distinguishes the zero-copy path at a
glance while the aggregation machinery stays identical.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

from repro.obs.metrics import Counter, Gauge, Histogram, Metric, MetricsRegistry
from repro.obs.trace import Event, Span, Tracer


@dataclass
class WorkerObs:
    """One worker's observability delta, picklable across the pool."""

    pid: int
    spans: list[Span] = field(default_factory=list)
    events: list[Event] = field(default_factory=list)
    metrics: list[Metric] = field(default_factory=list)


def capture_worker_obs(tracer: Tracer, registry: MetricsRegistry) -> WorkerObs:
    """Snapshot a worker's recorders into a :class:`WorkerObs`.

    Span/Event/metric dataclasses carry only plain values, so the
    snapshot pickles through the process pool as-is.
    """
    return WorkerObs(
        pid=tracer.pid,
        spans=list(tracer.spans),
        events=list(tracer.events),
        metrics=[registry.get(name) for name in registry.names()],
    )


def merge_worker_obs(
    tracer: Tracer,
    registry: MetricsRegistry,
    obs: WorkerObs,
    ts_offset_ns: int = 0,
    parent_span_id: Optional[int] = None,
) -> None:
    """Merge one worker's delta into the parent recorders.

    Metrics always merge (the registry has no disabled tier); spans and
    events merge only when the parent tracer records.  Worker root
    spans are re-parented under ``parent_span_id`` (the fan-out span).
    """
    for m in obs.metrics:
        if isinstance(m, Counter):
            registry.counter(m.name, m.help).inc(m.value)
        elif isinstance(m, Histogram):
            registry.histogram(m.name, m.help).merge(m)
        elif isinstance(m, Gauge):
            registry.gauge(m.name, m.help).set(m.value)

    if not tracer.enabled:
        return
    idmap: dict[int, int] = {}
    base = tracer.reserve_ids(len(obs.spans))
    for i, s in enumerate(obs.spans):
        idmap[s.span_id] = base + i
    with tracer._lock:
        for s in obs.spans:
            tracer.spans.append(replace(
                s, span_id=idmap[s.span_id],
                parent_id=idmap.get(s.parent_id, parent_span_id),
                start_ns=s.start_ns + ts_offset_ns, pid=obs.pid))
        for e in obs.events:
            tracer.events.append(replace(
                e, ts_ns=e.ts_ns + ts_offset_ns,
                span_id=idmap.get(e.span_id), pid=obs.pid))
