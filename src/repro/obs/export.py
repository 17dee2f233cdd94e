"""Exporters: Chrome trace-event JSON, JSON-lines, Prometheus text, JSON,
the ``--timings`` table.

- :func:`chrome_trace` renders a :class:`~repro.obs.trace.Tracer` into
  the Chrome trace-event format (open ``chrome://tracing`` or Perfetto
  and drop the file in).  Spans become complete (``"ph": "X"``) events
  with their attributes as ``args``; instant events become ``"ph": "i"``
  on the lane of the thread that recorded them.
- :func:`event_log_lines` renders the same spans and events as a
  JSON-lines structured log (one JSON object per line, ``type``
  discriminated).
- :func:`prometheus_text` / :func:`metrics_json` dump a
  :class:`~repro.obs.metrics.MetricsRegistry` (names sanitized to
  Prometheus conventions in the text form, kept dotted in JSON);
  :func:`timing_table` is the per-pass text view of the same registry.
"""

from __future__ import annotations

import json
from typing import Any, Iterator

from repro.obs.metrics import Histogram, MetricsRegistry
from repro.obs.trace import Tracer


def _metadata_events(tracer: Tracer,
                     lanes: list[tuple[int, int]]) -> list[dict[str, Any]]:
    """``process_name``/``thread_name`` metadata (``"ph": "M"``) events.

    Without these, Perfetto labels every lane with a bare pid; with
    them the coordinator process reads as ``repro`` and each pool
    worker as ``repro worker <pid>``, so a multiprocess trace is
    legible at a glance.  ``lanes`` is the distinct ``(pid, tid)``
    pairs that actually carry events.
    """
    events: list[dict[str, Any]] = []
    for pid in sorted({pid for pid, _ in lanes}):
        name = "repro" if pid == tracer.pid else f"repro worker {pid}"
        events.append({
            "name": "process_name", "cat": "__metadata", "ph": "M",
            "ts": 0, "pid": pid, "tid": 0, "args": {"name": name},
        })
    for pid, tid in sorted(set(lanes)):
        events.append({
            "name": "thread_name", "cat": "__metadata", "ph": "M",
            "ts": 0, "pid": pid, "tid": tid,
            "args": {"name": "main" if tid == 0 else f"thread {tid}"},
        })
    return events


def chrome_trace(tracer: Tracer) -> dict[str, Any]:
    """The Chrome trace-event JSON document for one tracer's run."""
    events: list[dict[str, Any]] = []
    lanes: list[tuple[int, int]] = []
    for s in sorted(tracer.spans, key=lambda s: (s.start_ns, s.span_id)):
        args: dict[str, Any] = dict(s.attributes)
        if s.parent_id is not None:
            args["parent_span"] = s.parent_id
        if s.error is not None:
            args["error"] = s.error
        pid = s.pid if s.pid is not None else tracer.pid
        lanes.append((pid, s.tid))
        events.append({
            "name": s.name,
            "cat": s.category,
            "ph": "X",
            "ts": s.start_ns / 1e3,       # microseconds
            "dur": s.duration_ns / 1e3,
            "pid": pid,
            "tid": s.tid,
            "args": args,
        })
    for e in sorted(tracer.events, key=lambda e: e.ts_ns):
        args = dict(e.attributes)
        if e.span_id is not None:
            args["span"] = e.span_id
        pid = e.pid if e.pid is not None else tracer.pid
        lanes.append((pid, e.tid))
        events.append({
            "name": e.name,
            "cat": e.category + ".event",    # apart from span categories
            "ph": "i",
            "ts": e.ts_ns / 1e3,
            "s": "t",                     # thread-scoped instant
            "pid": pid,
            "tid": e.tid,
            "args": args,
        })
    events = _metadata_events(tracer, lanes) + events
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome_trace(tracer: Tracer, path: str, extra_events=()) -> None:
    doc = chrome_trace(tracer)
    doc["traceEvents"].extend(extra_events)
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def _prom_name(name: str) -> str:
    """Sanitize a dotted metric name to Prometheus charset."""
    out = []
    for ch in name:
        out.append(ch if ch.isalnum() or ch == "_" else "_")
    s = "".join(out)
    if s and s[0].isdigit():
        s = "_" + s
    return s or "_"


def _fmt(v: float) -> str:
    if isinstance(v, float) and v == float("inf"):
        return "+Inf"
    if isinstance(v, float) and v.is_integer():
        return str(int(v))
    return repr(v) if isinstance(v, float) else str(v)


def prometheus_text(registry: MetricsRegistry) -> str:
    """Prometheus exposition-format text for every metric, sorted."""
    lines: list[str] = []
    for name in registry.names():
        m = registry.get(name)
        pname = _prom_name(name)
        if m.help:
            lines.append(f"# HELP {pname} {m.help}")
        lines.append(f"# TYPE {pname} {m.kind}")
        if isinstance(m, Histogram):
            cum = 0
            for le, n in zip(m.buckets + (float("inf"),), m.counts):
                cum += n
                lines.append(
                    f'{pname}_bucket{{le="{_fmt(le)}"}} {cum}')
            lines.append(f"{pname}_sum {_fmt(m.total)}")
            lines.append(f"{pname}_count {m.count}")
            if m.count:
                # summary-style quantile estimates (bucket-interpolated)
                for q in (0.5, 0.95, 0.99):
                    lines.append(
                        f'{pname}{{quantile="{q}"}} {_fmt(m.quantile(q))}')
        else:
            lines.append(f"{pname} {_fmt(m.value)}")
    return "\n".join(lines) + ("\n" if lines else "")


#: histogram family the pass manager feeds, one per pass name
PASS_SECONDS = "pipeline.pass.seconds."
#: counter families ``--timings`` lists under the pass rows
TIMING_COUNTERS = ("cache.hit", "cache.miss", "cache.evict", "engine:")


def timing_table(registry: MetricsRegistry) -> str:
    """The ``--timings`` view: a per-pass timing table plus the plan
    cache / engine counter lines.

    Deterministic: passes are sorted by total time (descending), ties
    broken by name; counters are sorted by name.
    """
    lines = [f"{'pass':<22} {'calls':>6} {'total(ms)':>10} {'mean(ms)':>10}"]
    passes = [(name[len(PASS_SECONDS):], registry.get(name))
              for name in registry.names() if name.startswith(PASS_SECONDS)]
    if not passes:
        lines.append("(no passes recorded)")
    for name, h in sorted(passes, key=lambda kv: (-kv[1].total, kv[0])):
        lines.append(f"{name:<22} {h.count:>6} {h.total * 1e3:>10.3f} "
                     f"{h.mean * 1e3:>10.3f}")
    total = sum(h.total for _, h in passes)
    lines.append(f"{'total':<22} {'':>6} {total * 1e3:>10.3f} {'':>10}")
    for name in registry.names():
        if name.startswith(TIMING_COUNTERS):
            lines.append(f"counter {name}: {registry.value(name)}")
    return "\n".join(lines)


def metrics_json(registry: MetricsRegistry) -> str:
    """JSON metrics dump (dotted names preserved)."""
    return json.dumps(registry.snapshot(), indent=1, sort_keys=True) + "\n"


def write_metrics(registry: MetricsRegistry, path: str) -> None:
    """Write a metrics dump; ``.json`` gets JSON, anything else text."""
    body = (metrics_json(registry) if path.endswith(".json")
            else prometheus_text(registry))
    with open(path, "w") as fh:
        fh.write(body)


# ---------------------------------------------------------------------------
# structured event log (JSON lines)
# ---------------------------------------------------------------------------

def event_log_lines(tracer: Tracer) -> Iterator[str]:
    """Spans and events interleaved by timestamp, one JSON object each."""
    records: list[tuple[int, dict[str, Any]]] = []
    for s in tracer.spans:
        records.append((s.start_ns, {
            "type": "span",
            "name": s.name,
            "category": s.category,
            "span_id": s.span_id,
            "parent_id": s.parent_id,
            "start_us": round(s.start_ns / 1e3, 3),
            "duration_us": round(s.duration_ns / 1e3, 3),
            "attributes": s.attributes,
            **({"error": s.error} if s.error else {}),
            **({"pid": s.pid} if s.pid is not None else {}),
        }))
    for e in tracer.events:
        records.append((e.ts_ns, {
            "type": "event",
            "name": e.name,
            "category": e.category,
            "span_id": e.span_id,
            "ts_us": round(e.ts_ns / 1e3, 3),
            "attributes": e.attributes,
        }))
    for _, rec in sorted(records, key=lambda r: r[0]):
        yield json.dumps(rec, sort_keys=True)


def write_event_log(tracer: Tracer, path: str) -> None:
    with open(path, "w") as fh:
        for line in event_log_lines(tracer):
            fh.write(line + "\n")
