"""The one recorder: a hierarchical span tracer feeding a bounded ring.

A :class:`Span` is one timed region of work (a pipeline pass, a plan
cache lookup, one engine block, a machine-simulation phase) with a
category, free-form attributes, and a parent -- spans opened while
another span is open nest under it, so one compile-execute-simulate run
reads as a tree.  An :class:`Event` is an instant (a diagnostic, a
lease transition) attached to whatever span is open.  A site reports an
occurrence with one :meth:`Tracer.span` or :meth:`Tracer.event` call.

The process default is a *disabled* tracer: an unmarked ``span()`` then
returns one shared no-op context manager, so call sites can stay
unconditional even on hot-ish paths (per block -- never per iteration).
The ledger measures that path as ``obs.trace.null_span_ns`` and the
enabled one as ``obs.trace.overhead_ratio``.  A record marked
``coarse`` (session / pass / engine-run / scheduler / pool granularity,
lease transitions, errors) is always timed and always lands in
:data:`RING` as well, enabled or not: one tuple append, memory bounded
regardless of run length, written out by
:func:`repro.obs.flight.dump_blackbox` when something dies.

Clocks are monotonic (:func:`time.perf_counter_ns`), anchored to the
tracer's (or the ring's) creation, so timestamps are stable under
wall-clock adjustments and directly usable as Chrome trace-event ``ts``
offsets.
"""

from __future__ import annotations

import os
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Optional, Union

from repro.ctxstack import ScopeStack


class Ring(deque):
    """The last ``maxlen`` coarse occurrences, as plain tuples
    ``(ts_ns, kind, name, payload)``: ``kind`` is ``span`` / ``event`` /
    ``lease`` / ``error``, ``payload`` ``None`` or a small dict, and
    ``ts_ns`` is taken on append, so it is monotone in ring order."""

    def __init__(self, capacity: int = 4096) -> None:
        super().__init__(maxlen=max(16, capacity))
        self.epoch_ns = time.perf_counter_ns()

    def add(self, kind: str, name: str, payload: Optional[dict]) -> None:
        self.append((time.perf_counter_ns() - self.epoch_ns,
                     kind, name, payload or None))


#: The process-wide ring every tracer's coarse records land in.
RING = Ring()


class _NullSpan:
    """The shared do-nothing span returned by disabled tracers."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False

    def set(self, **attrs: Any) -> "_NullSpan":
        return self


#: Singleton no-op span; ``tracer.span(...)`` returns this when disabled.
NULL_SPAN = _NullSpan()


@dataclass
class Span:
    """One completed (or in-flight) timed region."""

    name: str
    category: str
    span_id: int
    parent_id: Optional[int]
    start_ns: int
    duration_ns: int = 0
    attributes: dict[str, Any] = field(default_factory=dict)
    tid: int = 0
    error: Optional[str] = None
    # process lane: None = the owning tracer's pid; set explicitly for
    # spans adopted from worker processes (repro.obs.aggregate)
    pid: Optional[int] = None

    def set(self, **attrs: Any) -> "Span":
        """Attach attributes (shows up as Chrome trace ``args``)."""
        self.attributes.update(attrs)
        return self

    @property
    def seconds(self) -> float:
        return self.duration_ns / 1e9


@dataclass
class Event:
    """One instant occurrence attached to the open span (if any)."""

    name: str
    category: str
    ts_ns: int
    span_id: Optional[int]
    attributes: dict[str, Any] = field(default_factory=dict)
    pid: Optional[int] = None
    tid: int = 0


class _SpanContext:
    """Context manager that opens/closes one recorded span."""

    __slots__ = ("_tracer", "span", "_coarse")

    def __init__(self, tracer: "Tracer", span: Span, coarse: bool) -> None:
        self._tracer = tracer
        self.span = span
        self._coarse = coarse

    def __enter__(self) -> Span:
        self._tracer._stack().append(self.span)
        return self.span

    def __exit__(self, exc_type, exc, tb) -> bool:
        span, tracer = self.span, self._tracer
        span.duration_ns = tracer._now() - span.start_ns
        if exc_type is not None:
            span.error = f"{exc_type.__name__}: {exc}"
        stack = tracer._stack()
        if stack and stack[-1] is span:
            stack.pop()
        if tracer.enabled:
            with tracer._lock:
                tracer.spans.append(span)
        if self._coarse:
            payload = dict(span.attributes)
            payload["dur_us"] = round(span.duration_ns / 1e3, 1)
            if span.error is not None:
                payload["error"] = span.error
            RING.add("span", span.name, payload)
        return False


class Tracer:
    """Collects spans and events; disabled (the process default), it
    keeps nothing but still files ``coarse`` records in :data:`RING`."""

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.spans: list[Span] = []
        self.events: list[Event] = []
        self.pid = os.getpid()
        self._epoch_ns = time.perf_counter_ns()
        self._next_id = 0
        self._lock = threading.Lock()
        self._local = threading.local()

    # -- clock ------------------------------------------------------------
    def _now(self) -> int:
        return time.perf_counter_ns() - self._epoch_ns

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    # -- recording --------------------------------------------------------
    def span(self, name: str, category: str = "app", coarse: bool = False,
             **attrs: Any):
        """Open a span as a context manager.  The ``with`` target is the
        :class:`Span` -- or, for an unmarked span on a disabled tracer,
        the shared null span -- so ``sp.set(key=value)`` always works.
        """
        if not (self.enabled or coarse):
            return NULL_SPAN
        stack = self._stack()
        parent = stack[-1].span_id if stack else None
        span = Span(name=name, category=category,
                    span_id=self.reserve_ids(1),
                    parent_id=parent, start_ns=self._now(),
                    attributes=attrs,
                    tid=threading.get_ident() & 0xFFFF)
        return _SpanContext(self, span, coarse)

    def event(self, name: str, category: str = "app",
              coarse: Union[bool, str] = False, **attrs: Any) -> None:
        """Record an instant event under the currently open span.
        ``coarse`` may name the ring kind to file it under (``"lease"``,
        ``"error"`` -- what ``repro blackbox`` groups on).
        """
        if coarse:
            RING.add("event" if coarse is True else coarse, name, attrs)
        if not self.enabled:
            return
        stack = self._stack()
        evt = Event(name=name, category=category, ts_ns=self._now(),
                    span_id=stack[-1].span_id if stack else None,
                    attributes=attrs,
                    tid=threading.get_ident() & 0xFFFF)
        with self._lock:
            self.events.append(evt)

    def reserve_ids(self, n: int) -> int:
        """Reserve ``n`` consecutive span ids; returns the first.

        Used when adopting spans recorded by another tracer (a worker
        process) so their remapped ids never collide with local ones.
        """
        with self._lock:
            first = self._next_id
            self._next_id += n
        return first

    # -- queries ----------------------------------------------------------
    def find(self, name: Optional[str] = None,
             category: Optional[str] = None) -> list[Span]:
        return [s for s in self.spans
                if (name is None or s.name == name)
                and (category is None or s.category == category)]

    def categories(self) -> set[str]:
        return {s.category for s in self.spans}

    def clear(self) -> None:
        with self._lock:
            self.spans.clear()
            self.events.clear()


#: Process-wide default: a *disabled* tracer (the null-recorder path).
NULL_TRACER = Tracer(enabled=False)

_tracer_stack = ScopeStack(NULL_TRACER)


def current_tracer() -> Tracer:
    """The tracer instrumented call sites report to (per thread)."""
    return _tracer_stack.top(NULL_TRACER)


def use_tracer(tracer: Tracer):
    """Scope the active tracer (e.g. for one CLI command or request)."""
    return _tracer_stack.scoped(tracer)
