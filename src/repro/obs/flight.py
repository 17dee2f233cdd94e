"""The always-on flight recorder: a bounded black-box ring buffer.

The tracer (:mod:`repro.obs.trace`) records everything but only when a
run opts in (``--trace``); a crashed, hung, or chaos-aborted run that
never opted in tells you nothing.  The flight recorder is the inverse
trade: it is *always on*, it records only coarse occurrences (spans at
pass/engine/scheduler granularity, lease transitions, pool lifecycle,
errors -- never per-iteration or per-block work), and it keeps only the
last ``capacity`` entries in a ring (``collections.deque(maxlen=...)``),
so steady-state cost is one tuple append per coarse event and memory is
bounded regardless of run length.  ``tests/obs/test_flight.py`` pins the
coarseness (entries per run bounded by the block count); the recorder
stays on in every ledger workload, so its tax is inside each op time.

When something dies, the ring is **dumped**: the scheduler dumps on
:class:`~repro.runtime.scheduler.SchedulerError` and
:class:`~repro.runtime.scheduler.PoolCollapse`, ``repro chaos`` dumps on
a failed recovery certification, and the CLI driver dumps on any
unhandled exception.  A dump is a ``repro-blackbox-<pid>-<stamp>.json``
file holding the surviving entries, the final metrics snapshot of the
current registry (the run's metric deltas), and any extra payload the
dump site attaches (the scheduler attaches its lease timeline).
``repro blackbox [FILE]`` renders the newest dump -- last N spans and
events, the lease timeline, the final metric deltas -- so a post-mortem
needs no re-run and no foresight.

``REPRO_BLACKBOX_DIR`` redirects dumps (default: the working
directory).
"""

from __future__ import annotations

import json
import os
import time
from collections import deque
from pathlib import Path
from typing import Any, Optional

from repro import config

DEFAULT_CAPACITY = 4096
#: Dump filename prefix; ``repro blackbox`` globs on this.
BLACKBOX_PREFIX = "repro-blackbox-"

#: Entry kinds -- the renderer groups on these.
SPAN = "span"
EVENT = "event"
LEASE = "lease"
METRIC = "metric"
ERROR = "error"


class _FlightSpan:
    """Context manager recording one coarse region into the ring."""

    __slots__ = ("_rec", "_name", "_payload", "_t0")

    def __init__(self, rec: "FlightRecorder", name: str,
                 payload: Optional[dict]) -> None:
        self._rec = rec
        self._name = name
        self._payload = payload

    def __enter__(self) -> "_FlightSpan":
        self._t0 = time.perf_counter_ns()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        payload = dict(self._payload) if self._payload else {}
        payload["dur_us"] = round(
            (time.perf_counter_ns() - self._t0) / 1e3, 1)
        if exc_type is not None:
            payload["error"] = f"{exc_type.__name__}: {exc}"
        self._rec.record(SPAN, self._name, **payload)
        return False


class FlightRecorder:
    """A bounded ring of coarse occurrences, dumpable on failure.

    Entries are plain tuples ``(ts_ns, kind, name, payload)`` with
    ``payload`` either ``None`` or a small dict -- cheap to append,
    trivially JSON-able at dump time.  Timestamps are monotonic,
    anchored to the recorder's creation (same convention as the
    tracer), so entry times read as run-relative offsets.
    """

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        self.capacity = max(16, capacity)
        self._ring: deque = deque(maxlen=self.capacity)
        self._epoch_ns = time.perf_counter_ns()
        self.pid = os.getpid()
        self.dumps = 0

    # -- recording --------------------------------------------------------
    def record(self, kind: str, name: str, **payload: Any) -> None:
        """Append one occurrence; near-free, never raises."""
        self._ring.append((time.perf_counter_ns() - self._epoch_ns,
                           kind, name, payload or None))

    def span(self, name: str, **payload: Any):
        """A coarse timed region (use at pass/engine/run granularity)."""
        return _FlightSpan(self, name, payload or None)

    def error(self, name: str, exc: BaseException, **payload: Any) -> None:
        self.record(ERROR, name,
                    exc=f"{type(exc).__name__}: {exc}", **payload)

    # -- queries ----------------------------------------------------------
    def entries(self) -> list[tuple]:
        return list(self._ring)

    def __len__(self) -> int:
        return len(self._ring)

    def clear(self) -> None:
        self._ring.clear()

    # -- dumping ----------------------------------------------------------
    def to_doc(self, reason: str, extra: Optional[dict] = None,
               registry=None) -> dict:
        """The JSON blackbox document (entries + final metric deltas)."""
        from repro.obs.metrics import current_registry

        reg = registry if registry is not None else current_registry()
        return {
            "blackbox": 1,
            "reason": reason,
            "pid": self.pid,
            "ts": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
            "capacity": self.capacity,
            "entries": [
                {"t_us": round(ts / 1e3, 1), "kind": kind, "name": name,
                 **({"data": payload} if payload else {})}
                for ts, kind, name, payload in self._ring
            ],
            "metrics": reg.snapshot(),
            **(extra or {}),
        }

    def dump(self, reason: str, path: Optional[str] = None,
             extra: Optional[dict] = None, registry=None) -> Optional[str]:
        """Write the blackbox; returns the path (None if the write failed).

        Never raises: a post-mortem writer that throws would mask the
        failure it is documenting.
        """
        try:
            if path is None:
                stamp = time.strftime("%Y%m%d-%H%M%S", time.gmtime())
                name = f"{BLACKBOX_PREFIX}{self.pid}-{stamp}-{self.dumps}.json"
                path = str(Path(blackbox_dir()) / name)
            doc = self.to_doc(reason, extra=extra, registry=registry)
            tmp = f"{path}.tmp.{self.pid}"
            with open(tmp, "w") as fh:
                json.dump(doc, fh, indent=1, sort_keys=True)
                fh.write("\n")
            os.replace(tmp, path)
            self.dumps += 1
            return path
        except Exception:  # pragma: no cover - defensive post-mortem path
            return None


def blackbox_dir() -> str:
    """Where dumps land (``REPRO_BLACKBOX_DIR`` or the cwd)."""
    return config.get("REPRO_BLACKBOX_DIR") or os.getcwd()


#: The process-wide recorder every instrumented site feeds.
FLIGHT = FlightRecorder()


def flight() -> FlightRecorder:
    """The process-wide flight recorder."""
    return FLIGHT


def dump_blackbox(reason: str, extra: Optional[dict] = None) -> Optional[str]:
    """Dump the process recorder; announce the path on stderr.

    The one-liner failure paths call (scheduler, chaos certifier, CLI
    driver).  Returns the path, or ``None`` when the write failed.
    """
    import sys

    path = FLIGHT.dump(reason, extra=extra)
    if path:
        # deliberately NOT the "repro: <reason>" prefix: that line is
        # the CLI's single machine-greppable failure reason, and this
        # notice must not masquerade as a second one
        print(f"repro blackbox dumped to {path} ({reason})",
              file=sys.stderr)
    return path


# ---------------------------------------------------------------------------
# reading + rendering (the `repro blackbox` subcommand)
# ---------------------------------------------------------------------------

def latest_blackbox(directory: Optional[str] = None) -> Optional[str]:
    """The newest ``repro-blackbox-*.json`` in ``directory`` (or cwd)."""
    d = Path(directory or blackbox_dir())
    dumps = sorted(d.glob(f"{BLACKBOX_PREFIX}*.json"),
                   key=lambda p: p.stat().st_mtime)
    return str(dumps[-1]) if dumps else None


def load_blackbox(path: str) -> dict:
    with open(path) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict) or doc.get("blackbox") != 1:
        raise ValueError(f"{path}: not a repro blackbox dump")
    return doc


def _fmt_payload(data: dict) -> str:
    return " ".join(f"{k}={v}" for k, v in sorted(data.items()))


def render_blackbox(doc: dict, last: int = 40) -> str:
    """The post-mortem dashboard: tail of the ring, lease timeline,
    final metric deltas."""
    lines = [
        f"blackbox: {doc.get('reason', '?')}",
        f"pid {doc.get('pid', '?')}  dumped {doc.get('ts', '?')}  "
        f"ring {len(doc.get('entries', []))}/{doc.get('capacity', '?')} "
        f"entries",
    ]
    entries = doc.get("entries", [])

    # -- the tail of the ring ---------------------------------------------
    tail = entries[-last:]
    lines.append("")
    lines.append(f"last {len(tail)} entries (of {len(entries)} kept):")
    for e in tail:
        data = e.get("data") or {}
        extra = f"  {_fmt_payload(data)}" if data else ""
        lines.append(f"  {e['t_us'] / 1e3:>10.1f}ms  {e['kind']:<7} "
                     f"{e['name']}{extra}")

    # -- lease timeline ----------------------------------------------------
    leases = [e for e in entries if e["kind"] == LEASE]
    sched = doc.get("scheduler")
    if sched and sched.get("leases"):
        lines.append("")
        lines.append(f"lease timeline ({sched['completed_units']}/"
                     f"{sched['units']} units recovered, "
                     f"{sched['retries']} retries, "
                     f"{sched['respawns']} respawns):")
        for rec in sched["leases"]:
            fault = f" fault={rec['fault']}" if rec.get("fault") else ""
            lines.append(
                f"  unit {rec['unit']:>3} attempt {rec['attempt']} "
                f"[{rec['start_ms']:>9.1f}ms .. {rec['end_ms']:>9.1f}ms] "
                f"{rec['outcome']}{fault}")
    elif leases:
        lines.append("")
        lines.append(f"lease transitions ({len(leases)}):")
        for e in leases:
            data = e.get("data") or {}
            lines.append(f"  {e['t_us'] / 1e3:>10.1f}ms  {e['name']}  "
                         f"{_fmt_payload(data)}")

    # -- final metric deltas ----------------------------------------------
    metrics = doc.get("metrics") or {}
    if metrics:
        lines.append("")
        lines.append(f"final metric deltas ({len(metrics)} metrics):")
        for name in sorted(metrics):
            m = metrics[name]
            if m.get("kind") == "histogram":
                lines.append(
                    f"  {name}: count={m['count']} sum={m['sum']:.6g} "
                    f"p95={m['p95'] if m['p95'] is not None else '-'}")
            else:
                lines.append(f"  {name}: {m.get('value')}")
    errors = [e for e in entries if e["kind"] == ERROR]
    lines.append("")
    lines.append(f"errors recorded: {len(errors)}")
    for e in errors[-5:]:
        data = e.get("data") or {}
        lines.append(f"  {e['t_us'] / 1e3:>10.1f}ms  {e['name']}  "
                     f"{data.get('exc', '')}")
    return "\n".join(lines)
