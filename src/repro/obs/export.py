"""The run's one observability document and its renderings.

- :func:`chrome_trace` renders a :class:`~repro.obs.trace.Tracer` into
  the Chrome trace-event format (open ``chrome://tracing`` or Perfetto
  and drop the file in).  Spans become complete (``"ph": "X"``) events
  with their attributes as ``args``; instant events become ``"ph": "i"``
  on the lane of the thread that recorded them.
- :func:`write_chrome_trace` writes the ``--trace FILE`` document: that
  trace, plus under the format's own ``otherData`` key a schema version,
  the command line, its exit code and the registry snapshot.
- ``python -m repro.obs.export FILE --as prom|timings`` renders a
  document's metrics as Prometheus text (:func:`prometheus_text`) or
  its ``pass:*`` spans and plan-cache / engine counters as the per-pass
  timing table (:func:`timing_table`).
"""

from __future__ import annotations

import json
import sys
from typing import Any

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


#: the version of the ``otherData`` block of a ``--trace`` document
TRACE_VERSION = 1


def write_chrome_trace(tracer: Tracer, path: str, **other: Any) -> None:
    """Write one run's document: ``tracer``'s Chrome trace and
    ``otherData`` holding the version and ``other`` (``command``,
    ``exit_code``, ``metrics``)."""
    doc = chrome_trace(tracer)
    doc["otherData"] = {"version": TRACE_VERSION, **other}
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


# ---------------------------------------------------------------------------
# renderings
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


def prometheus_text(metrics: dict[str, dict[str, Any]]) -> str:
    """Prometheus exposition-format text of a registry snapshot
    (:meth:`~repro.obs.metrics.MetricsRegistry.snapshot`), sorted."""
    lines: list[str] = []
    for name, m in sorted(metrics.items()):
        pname = _prom_name(name)
        lines.append(f"# TYPE {pname} {m['kind']}")
        lines.append(f"{pname} {_fmt(m['value'])}")
    return "\n".join(lines) + ("\n" if lines else "")


#: the span name prefix of a pipeline pass (``pipeline/passes.py``)
PASS_SPAN = "pass:"
#: counter families the timing table lists under the pass rows
TIMING_COUNTERS = ("cache.hit", "cache.miss", "cache.evict",
                   "engine.resolved.")


def timing_table(doc: dict[str, Any]) -> str:
    """A ``--trace`` document's per-pass timing table: one row per pass
    from its ``pass:*`` spans (calls, total, mean), then the plan cache
    / engine counter lines of ``otherData.metrics``.

    Deterministic: passes are sorted by total time (descending), ties
    broken by name; counters are sorted by name.
    """
    passes: dict[str, list[float]] = {}
    for e in doc["traceEvents"]:
        if e["ph"] == "X" and e["name"].startswith(PASS_SPAN):
            passes.setdefault(e["name"][len(PASS_SPAN):], []).append(
                e["dur"] / 1e3)             # microseconds -> ms
    rows = sorted(((sum(ms), name, len(ms)) for name, ms in passes.items()),
                  key=lambda row: (-row[0], row[1]))
    lines = [f"{'pass':<22} {'calls':>6} {'total(ms)':>10} {'mean(ms)':>10}"]
    if not rows:
        lines.append("(no passes recorded)")
    for total, name, calls in rows:
        lines.append(f"{name:<22} {calls:>6} {total:>10.3f} "
                     f"{total / calls:>10.3f}")
    total = sum(row[0] for row in rows)
    lines.append(f"{'total':<22} {'':>6} {total:>10.3f} {'':>10}")
    metrics = doc["otherData"]["metrics"]
    for name in sorted(metrics):
        if name.startswith(TIMING_COUNTERS):
            lines.append(f"counter {name}: {metrics[name]['value']}")
    return "\n".join(lines) + "\n"


#: ``--as`` -> its renderer of a whole document
RENDERINGS = {
    "prom": lambda doc: prometheus_text(doc["otherData"]["metrics"]),
    "timings": timing_table,
}


def main(argv=None) -> int:
    """``python -m repro.obs.export TRACE --as prom|timings``: one
    rendering of a ``--trace`` document on stdout; 1 if the file holds
    no such record."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.export",
        description="Render a repro --trace document.")
    parser.add_argument("file", help="a --trace FILE")
    parser.add_argument("--as", dest="form", required=True,
                        choices=sorted(RENDERINGS),
                        help="prom: the metrics as Prometheus text; "
                             "timings: the per-pass timing table and "
                             "the plan-cache / engine counters")
    args = parser.parse_args(argv)
    try:
        with open(args.file) as fh:
            text = RENDERINGS[args.form](json.load(fh))
    except (OSError, ValueError, KeyError, TypeError) as exc:
        print(f"{args.file}: no {args.form} record: {exc!r}",
              file=sys.stderr)
        return 1
    sys.stdout.write(text)
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
