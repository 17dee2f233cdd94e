"""The blackbox file: the tracer's coarse ring, dumped and rendered.

When something dies, :data:`repro.obs.trace.RING` is **dumped**: the
scheduler dumps on :class:`~repro.runtime.scheduler.SchedulerError` and
:class:`~repro.runtime.scheduler.PoolCollapse`, ``repro chaos`` on a
failed recovery certification, the CLI driver on any unhandled
exception.  A dump is a ``repro-blackbox-<pid>-<stamp>.json`` file in
``REPRO_BLACKBOX_DIR`` (default: the working directory) holding the
surviving entries, the snapshot of the current registry (the run's
metric deltas), and any extra payload the dump site attaches (the
scheduler attaches its lease timeline).  ``repro blackbox [FILE]``
renders the newest dump, so a post-mortem needs no re-run and no
foresight.  Imported only when something is dumped or rendered.
"""

from __future__ import annotations

import itertools
import json
import os
import sys
import time
from pathlib import Path
from typing import Optional

from repro import config
from repro.obs import trace
from repro.obs.metrics import current_registry

#: Dump filename prefix; ``repro blackbox`` globs on this.
BLACKBOX_PREFIX = "repro-blackbox-"

#: distinguishes consecutive dumps of one process within one second
_SEQ = itertools.count()


def blackbox_dir() -> str:
    """Where dumps land (``REPRO_BLACKBOX_DIR`` or the cwd)."""
    return config.get("REPRO_BLACKBOX_DIR") or os.getcwd()


def dump_blackbox(reason: str, extra: Optional[dict] = None) -> Optional[str]:
    """Write the process ring as a blackbox; announce the path on stderr.

    The one-liner failure paths call (scheduler, chaos certifier, CLI
    driver).  Returns the path, or ``None`` when the write failed --
    never raises: a post-mortem writer that throws would mask the
    failure it is documenting.
    """
    ring, pid = trace.RING, os.getpid()
    try:
        stamp = time.strftime("%Y%m%d-%H%M%S", time.gmtime())
        path = str(Path(blackbox_dir())
                   / f"{BLACKBOX_PREFIX}{pid}-{stamp}-{next(_SEQ)}.json")
        doc = {
            "blackbox": 1,
            "reason": reason,
            "pid": pid,
            "ts": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
            "capacity": ring.maxlen,
            "entries": [
                {"t_us": round(ts / 1e3, 1), "kind": kind, "name": name,
                 **({"data": payload} if payload else {})}
                for ts, kind, name, payload in list(ring)
            ],
            "metrics": current_registry().snapshot(),
            **(extra or {}),
        }
        tmp = f"{path}.tmp.{pid}"
        with open(tmp, "w") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True, default=str)
            fh.write("\n")
        os.replace(tmp, path)
    except Exception:
        return None
    # deliberately NOT the "repro: <reason>" prefix: that line is the
    # CLI's single machine-greppable failure reason, and this notice
    # must not masquerade as a second one
    print(f"repro blackbox dumped to {path} ({reason})", file=sys.stderr)
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
    """Read a dump; ``ValueError`` unless :func:`render_blackbox` can
    render all of it -- a truncated or hand-edited file must not crash
    the post-mortem tool."""
    with open(path) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict) or doc.get("blackbox") != 1:
        raise ValueError(f"{path}: not a repro blackbox dump")
    try:
        render_blackbox(doc, last=sys.maxsize)
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"{path}: malformed blackbox dump "
                         f"({type(exc).__name__}: {exc})") from None
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
    leases = [e for e in entries if e["kind"] == "lease"]
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
    errors = [e for e in entries if e["kind"] == "error"]
    lines.append("")
    lines.append(f"errors recorded: {len(errors)}")
    for e in errors[-5:]:
        data = e.get("data") or {}
        lines.append(f"  {e['t_us'] / 1e3:>10.1f}ms  {e['name']}  "
                     f"{data.get('exc') or data.get('reason', '')}")
    return "\n".join(lines)
