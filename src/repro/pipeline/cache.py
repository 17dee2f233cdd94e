"""Content-addressed plan cache: in-memory LRU + optional disk store.

Plans are keyed by the canonical nest fingerprint
(:mod:`repro.lang.fingerprint`) plus the strategy/duplication/
elimination triple, so repeated ``build_plan``/CLI/benchmark invocations
on structurally identical nests are near-free.  Hit/miss counts are
counters of the metrics registry (``counter cache.hit`` /
``cache.miss`` in the ``--timings`` table), and misses carry a
clcache-style reason breakdown (:class:`MissReason`: new fingerprint
vs. options change vs. eviction) as ``cache.miss.<reason>`` counters.

The disk store (one pickle per key under a directory, enabled via the
``REPRO_PLAN_CACHE_DIR`` environment variable or
``PlanCache(directory=...)``) follows the clcache model: content hash
in, artifact out, corrupt, unreadable or stale-layout
(:data:`PLAN_FORMAT`) entries treated as misses and removed.  It
runs on the shared :class:`repro.pipeline.diskstore.DiskStore`
skeleton -- flock'd sidecar lock, ``manifest.json`` with a logical
access clock, tmp + ``os.replace`` writes, byte-cap LRU eviction
(:data:`DISK_CAP_MB`) -- so concurrent daemon workers
sharing one plan directory cannot corrupt it.  A current-layout
``*.plan`` file with no manifest entry (manifest lost or torn) is
adopted in place: it still hits and gains an entry.
"""

from __future__ import annotations

import dataclasses
import io
import pickle
from collections import OrderedDict
from fractions import Fraction
from typing import Any, Optional

from repro import config
from repro.lang.fingerprint import plan_cache_key
from repro.obs.metrics import MetricsRegistry, current_registry
from repro.obs.trace import current_tracer
from repro.pipeline.diskstore import DiskStore

HIT_COUNTER = "cache.hit"
MISS_COUNTER = "cache.miss"
EVICT_COUNTER = "cache.evict"

#: Object layout of a pickled entry.  Bump it whenever a class reachable
#: from a cached plan gains, loses or renames a field: an entry written
#: under another layout unpickles without error and fails later on the
#: missing attribute, so the reader treats it as corrupt instead.
PLAN_FORMAT = 3

#: Byte cap for the on-disk plan store, in MiB.
DISK_CAP_MB = 64


def cache_root():
    """The per-user root for repro's on-disk caches.

    ``$XDG_CACHE_HOME/repro`` when set, else ``~/.cache/repro``.  Each
    cache claims a subdirectory (the codegen kernel cache uses
    ``codegen/``); the plan cache keeps its explicitly configured
    ``REPRO_PLAN_CACHE_DIR`` for compatibility.
    """
    from pathlib import Path

    env = config.get("XDG_CACHE_HOME")
    base = Path(env) if env else Path.home() / ".cache"
    return base / "repro"


class MissReason:
    """Why a lookup missed (the clcache-style breakdown).

    - ``NEW_FINGERPRINT``: this nest structure was never compiled here;
    - ``OPTIONS_CHANGE``: the nest was seen before, but under different
      strategy/duplication/elimination options;
    - ``EVICTED``: the exact key was cached once and fell out of the LRU.
    """

    NEW_FINGERPRINT = "new-fingerprint"
    OPTIONS_CHANGE = "options-change"
    EVICTED = "evicted"

    ALL = (NEW_FINGERPRINT, OPTIONS_CHANGE, EVICTED)


class _PlanUnpickler(pickle.Unpickler):
    """Loads what a plan is made of and nothing else.

    The cache directory is user-writable and unpickling is execution,
    so a ``*.plan`` file may name only classes defined under ``repro``
    and ``fractions.Fraction`` (tuples, lists, dicts, sets, frozensets,
    numbers and strings need no lookup).  Any other global -- ``os.system``,
    ``builtins.eval``, a function, a module attribute reached through a
    ``repro`` module -- is an :class:`pickle.UnpicklingError`, which the
    reader treats like any corrupt entry: a miss, and the file removed.
    """

    def find_class(self, module: str, name: str) -> type:
        if (module, name) == ("fractions", "Fraction"):
            return Fraction
        if module.startswith("repro.") and "." not in name:
            found = super().find_class(module, name)
            if isinstance(found, type) and found.__module__ == module:
                return found
        raise pickle.UnpicklingError(
            f"plan entry names {module}.{name}, which no plan holds")


def _detach(plan: Any) -> Any:
    """Return a plan whose mutable containers are private copies.

    The blocks/data blocks themselves are frozen dataclasses over tuples
    and frozensets, so copying the top-level ``blocks`` list and the
    ``data_blocks`` dict-of-lists is enough to isolate cached entries
    from callers that rewrite container slots
    (e.g. the sabotage-style negative tests).
    """
    if not hasattr(plan, "blocks") and hasattr(plan, "plan"):
        # wrapper carrying the plan (e.g. the pipeline's cached-result
        # record): detach the plan inside, keep the rest shared
        return dataclasses.replace(plan, plan=_detach(plan.plan))
    return dataclasses.replace(
        plan,
        blocks=list(plan.blocks),
        data_blocks={name: list(dbs)
                     for name, dbs in plan.data_blocks.items()},
    )


class PlanCache:
    """LRU cache of :class:`~repro.core.plan.PartitionPlan` objects.

    Stored and served plans are detached at the container level (see
    :func:`_detach`): hits never alias a previously returned plan's
    mutable lists/dicts, so no caller can corrupt the cache.
    """

    def __init__(self, maxsize: int = 256,
                 directory: Optional[str] = None) -> None:
        if maxsize < 1:
            raise ValueError("cache maxsize must be >= 1")
        self.maxsize = maxsize
        self.directory = directory
        self._disk: Optional[DiskStore] = None
        self._store: "OrderedDict[tuple, Any]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        #: miss-reason name -> count (see :class:`MissReason`)
        self.miss_reasons: dict[str, int] = {r: 0 for r in MissReason.ALL}
        self._fingerprints: set = set()   # every fingerprint ever stored
        self._evicted: set = set()        # keys dropped by the LRU

    # -- keys -------------------------------------------------------------
    @staticmethod
    def key_for(nest, config) -> tuple:
        strategy_value, dup, elim = config.cache_key_parts()
        return plan_cache_key(nest, strategy_value,
                              duplicate_arrays=dup,
                              eliminate_redundant=elim)

    # -- lookup -----------------------------------------------------------
    def _classify_miss(self, key: tuple) -> str:
        if key in self._evicted:
            return MissReason.EVICTED
        if key[0] in self._fingerprints:
            return MissReason.OPTIONS_CHANGE
        return MissReason.NEW_FINGERPRINT

    def get(self, key: tuple,
            registry: Optional[MetricsRegistry] = None) -> Any:
        """The cached plan or ``None``; counts into ``registry`` (default:
        the current one)."""
        registry = registry if registry is not None else current_registry()
        with current_tracer().span("cache.lookup", category="cache") as sp:
            plan = self._store.get(key)
            if plan is None and self.directory is not None:
                plan = self._disk_read(key)
                if plan is not None:
                    self._remember(key, plan, registry)
            if plan is not None:
                self._store.move_to_end(key)
                self.hits += 1
                sp.set(outcome="hit")
                registry.inc(HIT_COUNTER)
                return _detach(plan)
            reason = self._classify_miss(key)
            self.misses += 1
            self.miss_reasons[reason] += 1
            sp.set(outcome="miss", reason=reason)
            registry.inc(MISS_COUNTER)
            registry.inc(f"{MISS_COUNTER}.{reason}")
            return None

    def put(self, key: tuple, plan: Any,
            registry: Optional[MetricsRegistry] = None) -> None:
        registry = registry if registry is not None else current_registry()
        plan = _detach(plan)
        self._fingerprints.add(key[0])
        self._evicted.discard(key)
        self._remember(key, plan, registry)
        if self.directory is not None:
            self._disk_write(key, plan, registry)

    def _remember(self, key: tuple, plan: Any,
                  registry: MetricsRegistry) -> None:
        self._store[key] = plan
        self._store.move_to_end(key)
        while len(self._store) > self.maxsize:
            dropped, _ = self._store.popitem(last=False)
            self._evicted.add(dropped)
            self.evictions += 1
            registry.inc(EVICT_COUNTER)

    # -- disk store -------------------------------------------------------
    def _stem_for(self, key: tuple) -> str:
        fingerprint, strategy, dup, elim = key
        dup_tag = "all" if dup is None else "-".join(dup) or "none"
        return f"{fingerprint}.{strategy}.{dup_tag}.{int(elim)}"

    def _diskstore(self) -> Optional[DiskStore]:
        """The lock-safe store for :attr:`directory` (lazy, best-effort)."""
        if self.directory is None:
            return None
        store = self._disk
        if store is None or str(store.root) != str(self.directory):
            try:
                store = self._disk = DiskStore(
                    self.directory, cap_bytes=DISK_CAP_MB * 1024 * 1024)
            except OSError:
                return None  # unwritable directory: memory cache only
        return store

    def _disk_read(self, key: tuple) -> Any:
        store = self._diskstore()
        if store is None:
            return None
        stem = self._stem_for(key)
        try:
            with store.locked():
                m = store.read_manifest()
                try:
                    fmt, plan = _PlanUnpickler(io.BytesIO(
                        store.read_file(f"{stem}.plan"))).load()
                    if fmt != PLAN_FORMAT:
                        raise ValueError(f"plan format {fmt!r}")
                except (OSError, pickle.PickleError, EOFError, ImportError,
                        AttributeError, TypeError, ValueError, IndexError,
                        KeyError):
                    # absent, torn, hostile or written under another layout
                    store.remove(stem, (".plan",))
                    if m["entries"].pop(stem, None) is not None:
                        store.write_manifest(m)
                    return None
                if stem in m["entries"]:
                    store.touch(m, stem)
                else:
                    # no manifest entry: adopt the file in place
                    nbytes = (store.root / f"{stem}.plan").stat().st_size
                    store.record(m, stem, nbytes)
                store.write_manifest(m)
                return plan
        except OSError:
            return None

    def _disk_write(self, key: tuple, plan: Any,
                    reg: MetricsRegistry) -> None:
        store = self._diskstore()
        if store is None:
            return
        stem = self._stem_for(key)
        try:
            blob = pickle.dumps((PLAN_FORMAT, plan))
            with store.locked():
                m = store.read_manifest()
                store.write_file(f"{stem}.plan", blob)
                store.record(m, stem, len(blob))
                evicted = store.evict_lru(m, (".plan",), protect=(stem,))
                store.write_manifest(m)
            reg.inc("cache.plan.disk.store")
            for _ in evicted:
                reg.inc("cache.plan.disk.evict")
            reg.set("cache.plan.disk.bytes", store.total_bytes(m))
        except (OSError, pickle.PickleError):
            pass  # disk store is best-effort; memory cache still works

    # -- management -------------------------------------------------------
    def __len__(self) -> int:
        return len(self._store)

    def __contains__(self, key: tuple) -> bool:
        return key in self._store

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def clear(self) -> None:
        self._store.clear()
        self.hits = self.misses = self.evictions = 0
        self.miss_reasons = {r: 0 for r in MissReason.ALL}
        self._fingerprints.clear()
        self._evicted.clear()


#: Process-wide default used by ``build_plan`` and the CLI.
PLAN_CACHE = PlanCache(directory=config.get("REPRO_PLAN_CACHE_DIR"))
