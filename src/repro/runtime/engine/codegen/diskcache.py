"""The persistent on-disk kernel cache (clcache-shaped).

One directory holds, per kernel key (the rename-invariant fingerprint
+ geometry digest computed by :mod:`repro.runtime.engine.codegen.emit`):

- ``<key>.py``  -- the generated source, for debuggability and for
  interpreters whose marshal format differs from the writer's;
- ``<key>.bin`` -- the ``marshal``-serialized code object, valid only
  for the recorded ``sys.implementation.cache_tag`` (a warm process on
  the same interpreter unmarshals it and skips *both* the emit and the
  compile step -- zero ``engine.codegen.emit``/``compile`` spans);
- ``manifest.json`` -- entry sizes, interpreter tags and a logical
  access clock for LRU eviction under the byte cap.

The lock/manifest/evict skeleton lives in the shared
:class:`repro.pipeline.diskstore.DiskStore` (also used by the plan
cache's disk tier): every operation takes an exclusive ``flock`` on a
sidecar lock file, payload files are written to a temp name and
``os.replace``d into place, and a corrupt manifest or payload is
treated as a miss (``cache.disk.miss.corrupt``) and rewritten, never
an error -- the cache is an optimization, so every failure path
degrades to re-emitting.

Stats surface through the ambient metrics registry:

- ``cache.disk.hit`` / ``cache.disk.miss.<reason>`` (reasons:
  ``new-key``, ``corrupt``) plus ``cache.disk.stale-tag`` when the
  source hits but the code object was written by another interpreter
- ``cache.disk.store``, ``cache.disk.evict``
- ``cache.disk.bytes`` (gauge, post-op total)

Knobs: ``REPRO_CODEGEN_CACHE_DIR`` (directory; default
``<cache-root>/codegen`` under :func:`repro.pipeline.cache.cache_root`),
``REPRO_CODEGEN_DISK=0`` (disable persistence entirely).  The byte cap
is :data:`CAP_MB`.
"""

from __future__ import annotations

import marshal
import sys
from pathlib import Path
from typing import Optional

from repro import config
from repro.pipeline.diskstore import DiskStore

CAP_MB = 32

_SUFFIXES = (".py", ".bin")


def _registry():
    from repro.obs.metrics import current_registry

    return current_registry()


def cache_tag() -> str:
    """The interpreter tag gating marshal reuse (e.g. ``cpython-311``)."""
    return sys.implementation.cache_tag or sys.version[:7]


class DiskKernelCache:
    """A lock-safe, size-capped source + code-object store."""

    def __init__(self, root: Path, cap_bytes: int) -> None:
        self._store = DiskStore(root, cap_bytes=cap_bytes)
        self.root = self._store.root
        self.cap_bytes = cap_bytes

    # -- operations -------------------------------------------------------
    def load(self, key: str):
        """-> (code object or None, source or None).

        A hit returns at least the source; the code object comes along
        only when the stored marshal matches this interpreter's tag.
        """
        reg = _registry()
        st = self._store
        with st.locked():
            m = st.read_manifest()
            entry = m["entries"].get(key)
            if entry is None:
                reg.inc("cache.disk.miss.new-key")
                return None, None
            try:
                src = st.read_file(f"{key}.py").decode()
            except OSError:
                del m["entries"][key]
                st.remove(key, _SUFFIXES)
                st.write_manifest(m)
                reg.inc("cache.disk.miss.corrupt")
                return None, None
            code = None
            if entry.get("tag") == cache_tag():
                try:
                    code = marshal.loads(st.read_file(f"{key}.bin"))
                except (OSError, ValueError, EOFError, TypeError):
                    code = None
            st.touch(m, key)
            st.write_manifest(m)
        if code is None and entry.get("tag") != cache_tag():
            # the source still hits; only the code object is re-derived
            reg.inc("cache.disk.stale-tag")
        reg.inc("cache.disk.hit")
        return code, src

    def store(self, key: str, src: str, code_bytes: bytes) -> None:
        """Persist one kernel and evict LRU entries past the byte cap."""
        reg = _registry()
        st = self._store
        with st.locked():
            m = st.read_manifest()
            src_bytes = src.encode()
            st.write_file(f"{key}.py", src_bytes)
            st.write_file(f"{key}.bin", code_bytes)
            st.record(m, key, len(src_bytes) + len(code_bytes),
                      tag=cache_tag())
            for _ in st.evict_lru(m, _SUFFIXES, protect=(key,)):
                reg.inc("cache.disk.evict")
            st.write_manifest(m)
            reg.inc("cache.disk.store")
            reg.set("cache.disk.bytes", st.total_bytes(m))


def default_cache_dir() -> Path:
    env = config.get("REPRO_CODEGEN_CACHE_DIR")
    if env:
        return Path(env)
    from repro.pipeline.cache import cache_root

    return cache_root() / "codegen"


def get_disk_cache() -> Optional[DiskKernelCache]:
    """The configured cache, or None when persistence is off.

    Construction failures (read-only filesystem, permission walls)
    disable the cache for the call rather than failing the run.
    """
    if not config.get("REPRO_CODEGEN_DISK"):
        return None
    try:
        return DiskKernelCache(default_cache_dir(),
                               CAP_MB * 1024 * 1024)
    except OSError:  # pragma: no cover - hostile filesystems
        return None
