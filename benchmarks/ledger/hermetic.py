"""Hermetic runs: private caches, default knobs, nothing left behind.

Every run gets a fresh directory under ``benchmarks/ledger/out/`` (so
the benchmark reads and writes only inside its checkout) holding its
``XDG_CACHE_HOME``, plan cache, blackbox dir, temp dir and daemon
socket.  Every other ``REPRO_*`` variable is removed from the
environment *before* ``repro`` is imported, so the numbers are the
program's defaults.  On the way out the daemon is stopped, and the run
fails if a pidfile, a socket or a ``/dev/shm`` segment survived it.
"""

from __future__ import annotations

import os
import platform
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SRC = ROOT / "src"
OUT = HERE / "out"

_SHM = Path("/dev/shm")
_SEGMENT_PREFIX = "repro-"


def _segments() -> set[str]:
    try:
        return {n for n in os.listdir(_SHM) if n.startswith(_SEGMENT_PREFIX)}
    except OSError:
        return set()


def _orphaned(segment: str) -> bool:
    """Is the segment ours to answer for?  Names are
    ``repro-<kind>-<pid>-<seq>``: it is, unless its creator is another
    live process (a concurrent run)."""
    try:
        pid = int(segment.split("-")[-2])
        if pid != os.getpid():
            os.kill(pid, 0)
            return False
    except (ValueError, IndexError, ProcessLookupError):
        pass
    except PermissionError:
        return False
    return True


def _short(path: Path) -> str:
    """``path`` relative to the working directory when that is shorter
    (AF_UNIX paths are capped at ~100 bytes)."""
    rel = os.path.relpath(path)
    return rel if len(rel) < len(str(path)) else str(path)


class Hermetic:
    """The private world of one run; use as a context manager."""

    def __init__(self) -> None:
        self.dir: Path = Path()
        self.socket = ""
        self._segments_before: set[str] = set()
        self.leaks: list[str] = []

    def __enter__(self) -> "Hermetic":
        if not (SRC / "repro" / "__init__.py").is_file():
            raise SystemExit(
                f"ledger: no program to measure: {SRC / 'repro'} is missing")
        OUT.mkdir(parents=True, exist_ok=True)
        self.dir = Path(tempfile.mkdtemp(prefix="run-", dir=OUT))
        for sub in ("cache", "plans", "blackbox", "tmp"):
            (self.dir / sub).mkdir()
        self.socket = _short(self.dir / "s.sock")
        env = os.environ
        for name in [n for n in env if n.startswith("REPRO_")]:
            del env[name]
        env["XDG_CACHE_HOME"] = str(self.dir / "cache")
        env["REPRO_PLAN_CACHE_DIR"] = str(self.dir / "plans")
        env["REPRO_BLACKBOX_DIR"] = str(self.dir / "blackbox")
        env["REPRO_SERVE_SOCKET"] = self.socket
        env["TMPDIR"] = str(self.dir / "tmp")
        tempfile.tempdir = None          # re-read TMPDIR
        env["PYTHONPATH"] = str(SRC)     # for `python -m repro` children
        if str(SRC) not in sys.path:
            sys.path.insert(0, str(SRC))
        self._segments_before = _segments()
        return self

    # -- the cache directories --------------------------------------------
    @property
    def plan_dir(self) -> Path:
        return self.dir / "plans"

    @property
    def kernel_dir(self) -> Path:
        return self.dir / "cache" / "repro" / "codegen"

    def empty_disk_caches(self) -> None:
        """Delete every cached plan and kernel (the directories stay:
        the program's stores hold on to them)."""
        for d in (self.plan_dir, self.kernel_dir):
            if d.is_dir():
                for entry in d.iterdir():
                    if entry.is_file():
                        entry.unlink()

    def plan_bytes(self) -> int:
        return sum(f.stat().st_size for f in self.plan_dir.glob("*.plan"))

    # -- the way out ------------------------------------------------------
    def __exit__(self, *exc) -> None:
        from repro.serve.daemon import pidfile_for, stop_daemon

        sock = Path(self.socket)
        if sock.exists() or pidfile_for(sock).exists():
            self.leaks.append(f"daemon still up at {sock}")
            stop_daemon(sock)
        for path in (sock, pidfile_for(sock)):
            if path.exists():
                self.leaks.append(f"left behind: {path}")
        for name in sorted(filter(_orphaned,
                                  _segments() - self._segments_before)):
            self.leaks.append(f"left behind: /dev/shm/{name}")
            try:
                (_SHM / name).unlink()
            except OSError:
                pass
        shutil.rmtree(self.dir, ignore_errors=True)


def machine_facts() -> dict:
    """What the numbers were measured on."""
    import numpy

    try:
        from multiprocessing import shared_memory  # noqa: F401
        shm = _SHM.is_dir() and os.access(_SHM, os.W_OK)
    except ImportError:
        shm = False
    try:
        load = list(os.getloadavg())
    except OSError:
        load = []
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "shm": bool(shm),
        "loadavg": load,
    }
