"""Live run introspection: the snapshot file and the ``repro top`` TUI.

A long multiprocess run is a black box from the outside: the scheduler
knows its lease states, the pool knows its workers, the registry knows
its cache hit rates -- but none of it is visible until the run ends.
This module closes that gap with a deliberately boring mechanism, a
**snapshot file**:

- the *writer* side (:class:`SnapshotWriter`) is wired into the
  scheduler's dispatch loop and the :class:`~repro.api.Session`
  lifecycle.  When ``REPRO_TOP_SNAPSHOT`` names a path, they
  periodically (default every 0.5s) write a one-object JSON snapshot of
  live state -- progress, throughput, lease tallies, per-worker lanes,
  pool/shm/cache stats, and the communication-optimality gauge --
  atomically (tmp + ``os.replace``), so a reader never sees a torn
  file;
- the *reader* side (``repro top``) polls that file and renders an
  ASCII dashboard (:func:`render_top`, built on
  :func:`repro.viz.ascii.render_bar`), refreshing in place on a TTY.
  ``--once`` renders a single frame (scripts, tests); a stale snapshot
  is labeled as such rather than silently shown fresh.

File-based on purpose: no socket, no dependency, works across
processes and even across machines on a shared filesystem, and a
crashed writer leaves behind exactly what a post-mortem wants.
"""

from __future__ import annotations

import json
import os
import sys
import time
from pathlib import Path
from typing import Any, Callable, Optional, Union

from repro import config

#: Seconds between snapshot writes (writer side).
DEFAULT_INTERVAL_S = 0.5
#: A snapshot older than this renders as stale (reader side).
STALE_AFTER_S = 5.0


class SnapshotWriter:
    """Throttled atomic JSON snapshot writer."""

    def __init__(self, path: Union[str, Path],
                 interval_s: float = DEFAULT_INTERVAL_S) -> None:
        self.path = str(path)
        self.interval_s = interval_s
        self._last = 0.0
        self.writes = 0

    def maybe_write(self, state: Union[dict, Callable[[], dict]]) -> bool:
        """Write if the interval elapsed; ``state`` may be a thunk so
        callers on hot-ish paths build the dict only when due."""
        now = time.monotonic()
        if now - self._last < self.interval_s:
            return False
        self.write(state() if callable(state) else state)
        return True

    def write(self, state: dict) -> None:
        """Unconditional atomic write; never raises (a dashboard must
        not be able to break the run it watches)."""
        self._last = time.monotonic()
        doc = dict(state)
        doc.setdefault("pid", os.getpid())
        doc["written_at"] = time.time()
        doc.setdefault("registry", registry_stats())
        try:
            tmp = f"{self.path}.tmp.{os.getpid()}"
            with open(tmp, "w") as fh:
                json.dump(doc, fh, sort_keys=True)
                fh.write("\n")
            os.replace(tmp, self.path)
            self.writes += 1
        except OSError:  # pragma: no cover - unwritable snapshot dir
            pass


def snapshot_path() -> Optional[str]:
    """The configured snapshot path, or None (snapshots off)."""
    return config.get("REPRO_TOP_SNAPSHOT")


_writer: Optional[SnapshotWriter] = None


def current_writer() -> Optional[SnapshotWriter]:
    """The process-wide writer for ``$REPRO_TOP_SNAPSHOT``, or None.

    Cached per path so the scheduler's throttle state survives across
    runs in one process; re-reads the environment on every call so
    tests (and long-lived daemons) can flip snapshots on and off.
    """
    global _writer
    path = snapshot_path()
    if path is None:
        _writer = None
    elif _writer is None or _writer.path != path:
        _writer = SnapshotWriter(path)
    return _writer


# ---------------------------------------------------------------------------
# snapshot content helpers (writer side)
# ---------------------------------------------------------------------------

def _rate(hit: float, miss: float) -> Optional[float]:
    total = hit + miss
    return None if total == 0 else hit / total


def comm_optimality(total_accesses: float, remote_accesses: float) -> float:
    """Fraction of accesses served block-locally, in [0, 1].

    ``1.0`` = every access landed in the owning block's local memory --
    the zero-communication certificate the audit proves statically; in
    the lower-bounds framing of Christ et al. (arXiv:1308.0068), any gap
    to 1.0 is communication a better allocation could have avoided.
    With no accesses observed yet (a run that has not started) the
    gauge optimistically reads 1.0: the plan was *built* to be
    communication-free, and any observed remote access pulls it down.
    """
    if total_accesses <= 0:
        return 1.0
    return max(0.0, 1.0 - remote_accesses / total_accesses)


def registry_stats(registry=None) -> dict[str, Any]:
    """The registry-derived block of a snapshot: pool, shm, caches.

    Reads the current metrics registry; every field is best-effort
    (absent metrics read as zero), so this works mid-run from any
    process that publishes the standard families.
    """
    from repro.obs.metrics import current_registry

    reg = registry if registry is not None else current_registry()
    miss_plan = sum(
        reg.value(n) for n in reg.names()
        if n == "cache.miss" or n.startswith("cache.miss."))
    disk_miss = sum(reg.value(n) for n in reg.names()
                    if n.startswith("cache.disk.miss"))
    return {
        "pool_workers": reg.value("engine.pool.workers"),
        "pool_spawns": reg.value("engine.pool.spawns"),
        "pool_reuses": reg.value("engine.pool.reuses"),
        "shm_bytes": reg.value("engine.shm.bytes"),
        "plan_cache_hits": reg.value("cache.hit"),
        "plan_cache_hit_rate": _rate(reg.value("cache.hit"), miss_plan),
        "kernel_cache_hits": reg.value("cache.disk.hit"),
        "kernel_cache_hit_rate": _rate(reg.value("cache.disk.hit"),
                                       disk_miss),
        "retries": reg.value("scheduler.retries"),
        "respawns": reg.value("scheduler.respawns"),
    }


# ---------------------------------------------------------------------------
# rendering (reader side)
# ---------------------------------------------------------------------------

def _fmt_bytes(n: float) -> str:
    for unit in ("B", "KiB", "MiB", "GiB"):
        if n < 1024 or unit == "GiB":
            return f"{n:.1f}{unit}" if unit != "B" else f"{int(n)}B"
        n /= 1024
    return f"{n:.1f}GiB"  # pragma: no cover


def _gauge_line(label: str, frac: Optional[float], note: str = "") -> str:
    from repro.viz.ascii import render_bar

    if frac is None:
        return f"{label:<18} [{'-' * 20}]    - {note}"
    return f"{label:<18} [{render_bar(frac, 20)}] {frac:>4.0%} {note}"


def render_top(snap: dict, now: Optional[float] = None) -> str:
    """One dashboard frame from one snapshot document."""
    now = time.time() if now is None else now
    age = now - snap.get("written_at", now)
    stale = f"  STALE ({age:.0f}s old)" if age > STALE_AFTER_S else ""
    phase = snap.get("phase", "?")
    lines = [
        f"repro top -- {snap.get('case', '?')} "
        f"[{snap.get('backend', 'multiprocess')}]  pid {snap.get('pid', '?')}"
        f"  phase {phase}  +{snap.get('elapsed_s', 0.0):.1f}s{stale}",
    ]

    units, done = snap.get("units", 0), snap.get("units_done", 0)
    blocks, bdone = snap.get("blocks", 0), snap.get("blocks_done", 0)
    if units:
        lines.append(_gauge_line(
            "progress", done / units if units else None,
            f"{done}/{units} units, {bdone}/{blocks} blocks"))
    tput = snap.get("blocks_per_sec")
    if tput is not None:
        lines.append(f"{'throughput':<18} {tput:>8.1f} blocks/s")

    leases = snap.get("leases")
    if leases:
        lines.append(
            f"{'leases':<18} {leases.get('total', 0)} total | "
            f"{leases.get('ok', 0)} ok | "
            f"{leases.get('inflight', 0)} inflight | "
            f"{leases.get('pending', 0)} pending | "
            f"{leases.get('expired', 0)} expired | "
            f"{leases.get('crashed', 0)} crashed | "
            f"{leases.get('dropped', 0)} dropped")

    lanes = snap.get("workers") or {}
    if lanes:
        peak = max((w.get("blocks", 0) for w in lanes.values()), default=0)
        lines.append("worker lanes:")
        for pid in sorted(lanes):
            w = lanes[pid]
            frac = (w.get("blocks", 0) / peak) if peak else 0.0
            lines.append(
                f"  {pid:>8} {_gauge_line('', frac)[19:]}"
                f" {w.get('blocks', 0)} blocks / {w.get('units', 0)} units")

    reg = snap.get("registry") or {}
    if reg:
        lines.append(
            f"{'pool':<18} {int(reg.get('pool_workers') or 0)} workers, "
            f"{int(reg.get('pool_spawns') or 0)} spawns, "
            f"{int(reg.get('pool_reuses') or 0)} reuses | shm "
            f"{_fmt_bytes(reg.get('shm_bytes') or 0)}")
        lines.append(_gauge_line("plan cache", reg.get("plan_cache_hit_rate"),
                                 f"({int(reg.get('plan_cache_hits') or 0)} "
                                 f"hits)"))
        lines.append(_gauge_line("kernel cache",
                                 reg.get("kernel_cache_hit_rate"),
                                 f"({int(reg.get('kernel_cache_hits') or 0)} "
                                 f"hits)"))
    gauge = snap.get("comm_optimality")
    if gauge is not None:
        note = ("communication-free" if gauge >= 1.0
                else f"{snap.get('remote_accesses', 0)} remote accesses")
        lines.append(_gauge_line("comm-optimality", gauge, f"({note})"))
    return "\n".join(lines)


def read_snapshot(path: Union[str, Path]) -> Optional[dict]:
    """The snapshot document, or None while it does not exist yet.

    Writes are atomic, so a readable file is always a complete
    document; a decode error still reads as "not yet" rather than a
    crash (the writer may be on an older format mid-upgrade).
    """
    try:
        with open(path) as fh:
            doc = json.load(fh)
        return doc if isinstance(doc, dict) else None
    except (OSError, json.JSONDecodeError):
        return None


def run_top(path: Optional[str] = None, interval_s: float = 1.0,
            iterations: Optional[int] = None, out=None,
            clear: Optional[bool] = None) -> int:
    """The ``repro top`` loop: poll the snapshot, render, repeat.

    ``iterations=None`` polls until interrupted; ``iterations=1`` is
    the ``--once`` mode.  Returns non-zero when no snapshot ever
    appeared (nothing is running, or the writer side was started
    without ``REPRO_TOP_SNAPSHOT``).
    """
    out = out or sys.stdout
    path = path or snapshot_path() or ".repro-top.json"
    if clear is None:
        clear = iterations != 1 and hasattr(out, "isatty") and out.isatty()
    seen = False
    i = 0
    try:
        while iterations is None or i < iterations:
            i += 1
            snap = read_snapshot(path)
            if snap is None:
                if iterations is not None and i >= iterations:
                    break
                time.sleep(min(interval_s, 0.2))
                continue
            seen = True
            frame = render_top(snap)
            if clear:
                print("\x1b[2J\x1b[H", end="", file=out)
            print(frame, file=out)
            if iterations is None or i < iterations:
                time.sleep(interval_s)
    except KeyboardInterrupt:  # pragma: no cover - interactive exit
        pass
    if not seen:
        print(f"repro top: no snapshot at {path} (set "
              "REPRO_TOP_SNAPSHOT on the run you want to watch)",
              file=sys.stderr)
        return 1
    return 0
