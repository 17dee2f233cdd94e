"""The harness's own tracing: in-memory spans and taps on ``repro``.

Nothing inside ``repro`` is edited to be measured.  A :class:`Recorder`
keeps spans (name, start, end, parent, op id) in a list and writes them
out when the run ends; :class:`Taps` wraps the *public* functions at
each layer boundary (``parse``, ``plan_cache_key``, every ``Pass.run``
via ``PassManager.replace``, ``PlanCache.get/put``, ``audit_plan``,
``make_arrays``, ``LocalMemory.allocate``, ``Engine.run_blocks``, ...)
so that calling them records a span, and puts the originals back
afterwards.  A layer's *self time* is its spans' duration minus the
part covered by their child spans.

End-to-end numbers never come from a tapped run: the taps are only
installed for the traced ops of a ``--trace 1`` run, and the ratio of
traced to untraced op time is reported as ``ledger.trace_overhead_ratio``.
"""

from __future__ import annotations

import dataclasses
import json
import threading
from contextlib import contextmanager
from time import perf_counter
from typing import Callable, Optional

#: the root span the harness opens around each op
OP_SPAN = "ledger.op"


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "child_s")

    def __init__(self, name: str, start: float, parent: Optional["Span"],
                 op) -> None:
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.op = op
        self.child_s = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


class Recorder:
    """Spans kept in memory; one stack per thread, one list for all."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, op=None) -> Span:
        stack = self._stack()
        parent = stack[-1] if stack else None
        if op is None and parent is not None:
            op = parent.op
        span = Span(name, perf_counter(), parent, op)
        stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = perf_counter()
        stack = self._stack()
        # exceptions unwind through several spans at once
        while stack and stack.pop() is not span:
            pass
        if span.parent is not None:
            span.parent.child_s += span.duration
        self.spans.append(span)   # list.append is atomic under the GIL

    @contextmanager
    def span(self, name: str, op=None):
        sp = self.open(name, op)
        try:
            yield sp
        finally:
            self.close(sp)

    def add(self, name: str, start: float, end: float) -> None:
        """A finished span under the current one (for synthetic spans
        that cover a run of many small calls)."""
        stack = self._stack()
        parent = stack[-1] if stack else None
        span = Span(name, start, parent, parent.op if parent else None)
        span.end = end
        if parent is not None:
            parent.child_s += span.duration
        self.spans.append(span)

    def wrap(self, name: str, fn: Callable) -> Callable:
        """``fn`` recording one span per call."""
        def tapped(*args, **kwargs):
            sp = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(sp)
        tapped.__wrapped__ = fn
        return tapped

    # -- reading ----------------------------------------------------------
    def self_times(self) -> dict[str, float]:
        """Layer name -> summed self time of its spans."""
        out: dict[str, float] = {}
        for sp in self.spans:
            out[sp.name] = out.get(sp.name, 0.0) + sp.self_s
        return out

    def durations(self, name: str) -> list[float]:
        return [sp.duration for sp in self.spans if sp.name == name]

    def to_json(self) -> list[dict]:
        ids = {id(sp): n for n, sp in enumerate(self.spans)}
        return [{"id": ids[id(sp)], "name": sp.name,
                 "start": sp.start, "end": sp.end,
                 "parent": ids.get(id(sp.parent)), "op": sp.op}
                for sp in self.spans]

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": self.to_json()}, fh)
            fh.write("\n")


class Taps:
    """Install / remove span wrappers around ``repro``'s layer boundaries.

    Every tap is an attribute assignment remembered with its original,
    so :meth:`remove` restores the program exactly.  ``install`` and
    ``remove`` cost microseconds, which lets a traced run alternate
    tapped and untapped ops.
    """

    def __init__(self, rec: Recorder) -> None:
        self.rec = rec
        self._undo: list[tuple] = []
        self._passes: list[tuple] = []
        #: open run of LocalMemory.allocate calls: [start, end] or None
        self._alloc: Optional[list] = None

    # -- plumbing ---------------------------------------------------------
    def _set(self, obj, attr: str, value) -> None:
        had = attr in vars(obj)
        self._undo.append((obj, attr, had, vars(obj).get(attr)))
        setattr(obj, attr, value)

    def tap(self, obj, attr: str, name: str) -> None:
        self._set(obj, attr, self.rec.wrap(name, getattr(obj, attr)))

    def remove(self) -> None:
        from repro.pipeline import passes

        for obj, attr, had, old in reversed(self._undo):
            if had:
                setattr(obj, attr, old)
            else:
                delattr(obj, attr)
        self._undo.clear()
        for name, original in self._passes:
            passes.DEFAULT_MANAGER.replace(name, original)
        self._passes.clear()

    def __enter__(self) -> "Taps":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.remove()

    # -- the taps ---------------------------------------------------------
    def install(self) -> None:
        import repro.api as api
        import repro.lang.parser as parser
        import repro.obs.audit as audit
        import repro.pipeline.cache as cache
        import repro.pipeline.passes as passes
        import repro.runtime.engine as engine_pkg
        import repro.runtime.engine.base as engine_base
        import repro.runtime.machine_run as machine_run
        import repro.runtime.parallel as parallel
        import repro.runtime.verify as verify
        import workloads
        from repro.machine.memory import LocalMemory

        rec = self.rec
        # cli: the child process as a whole (its inside is cli.* probes)
        self.tap(workloads, "run_cli", "cli.process")
        # lang: Session parses through the module attribute at call time
        self.tap(parser, "parse", "lang.parse")
        self.tap(cache, "plan_cache_key", "lang.fingerprint")
        # pipeline: the driver, each pass, the plan cache
        self.tap(passes, "run_pipeline", "pipeline.driver")
        for p in passes.DEFAULT_MANAGER.passes:
            tapped = dataclasses.replace(
                p, run=rec.wrap(f"pipeline.{p.name}", p.run))
            passes.DEFAULT_MANAGER.replace(p.name, tapped)
            self._passes.append((p.name, p))
        self._tap_plan_cache(passes.PLAN_CACHE)
        # obs
        self.tap(audit, "audit_plan", "obs.audit")
        # runtime: the facade methods, allocation, engines, golden model
        self.tap(api.Session, "run", "runtime.session_run")
        self.tap(api.Session, "verify", "runtime.verify")
        for mod in (parallel, verify, machine_run):
            if hasattr(mod, "make_arrays"):
                self.tap(mod, "make_arrays", "runtime.make_arrays")
        self.tap(verify, "run_sequential", "runtime.seq")
        self._tap_allocate(LocalMemory)
        for mod in (engine_pkg, engine_base):
            self._set(mod, "resolve_engine",
                      self._resolving(mod.resolve_engine))

    def _tap_plan_cache(self, plan_cache) -> None:
        """``get`` spans are named by outcome (mem_hit / disk_hit /
        miss), the clcache per-reason shape."""
        rec = self.rec
        get, put = plan_cache.get, plan_cache.put

        def tapped_get(key, instrumentation=None):
            in_memory = key in plan_cache
            sp = rec.open("pipeline.cache.miss")
            try:
                entry = get(key, instrumentation)
                if entry is not None:
                    sp.name = ("pipeline.cache.mem_hit" if in_memory
                               else "pipeline.cache.disk_hit")
                return entry
            finally:
                rec.close(sp)

        self._set(plan_cache, "get", tapped_get)
        self._set(plan_cache, "put", rec.wrap("pipeline.cache.put", put))

    def _tap_allocate(self, memory_cls) -> None:
        """One span per *run* of allocate calls, not per call.

        A parallel run allocates every block's region back to back
        (thousands of calls); the run is contiguous, so it is recorded
        as one span from the first call's start to the last call's end,
        closed when the engine starts (see :meth:`_resolving`).
        """
        allocate = memory_cls.allocate
        taps = self

        def tapped_allocate(self, *args, **kwargs):
            run = taps._alloc
            if run is None:
                run = taps._alloc = [perf_counter(), 0.0]
            try:
                return allocate(self, *args, **kwargs)
            finally:
                run[1] = perf_counter()

        self._set(memory_cls, "allocate", tapped_allocate)

    def flush_alloc(self) -> None:
        run, self._alloc = self._alloc, None
        if run is not None:
            self.rec.add("runtime.allocate", run[0], run[1])

    def _resolving(self, resolve: Callable) -> Callable:
        """``resolve_engine`` returning engines whose ``run_blocks``
        records a ``runtime.engine`` span."""
        rec, taps = self.rec, self

        def tapped_resolve(name=None):
            engine = resolve(name)
            run_blocks = engine.run_blocks

            def tapped_run_blocks(*args, **kwargs):
                taps.flush_alloc()
                sp = rec.open("runtime.engine")
                try:
                    return run_blocks(*args, **kwargs)
                finally:
                    rec.close(sp)

            engine.run_blocks = tapped_run_blocks
            return engine

        return tapped_resolve
