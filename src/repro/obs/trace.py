"""The one recorder: a hierarchical span tracer.

A :class:`Span` is one timed region of work (a pipeline pass, a plan
cache lookup, one engine block, a machine-simulation phase) with a
category, free-form attributes, and a parent -- spans opened while
another span is open nest under it, so one compile-execute-simulate run
reads as a tree.  An :class:`Event` is an instant (a diagnostic, a
pool spawn) attached to whatever span is open.  A site reports an
occurrence with one :meth:`Tracer.span` or :meth:`Tracer.event` call.

The process default is a *disabled* tracer: ``span()`` then returns one
shared no-op context manager and ``event()`` returns at once, so call
sites can stay unconditional even on hot-ish paths (per block -- never
per iteration).  The ledger measures that path as
``obs.trace.null_span_ns`` and the enabled one as
``obs.trace.overhead_ratio``.  What happened before a failure is in the
``--trace`` document, which the CLI writes however the command ends.

Each thread's open spans are its own list (a :class:`threading.local`),
so spans opened on one thread never nest under another's.

Clocks are monotonic (:func:`time.perf_counter_ns`), anchored to the
tracer's creation, so timestamps are stable under wall-clock
adjustments and directly usable as Chrome trace-event ``ts`` offsets.
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Optional

from repro.ctxstack import ScopeStack


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

    __slots__ = ("_tracer", "span")

    def __init__(self, tracer: "Tracer", span: Span) -> None:
        self._tracer = tracer
        self.span = span

    def __enter__(self) -> Span:
        self._tracer._open.spans.append(self.span)
        return self.span

    def __exit__(self, exc_type, exc, tb) -> bool:
        span, tracer = self.span, self._tracer
        span.duration_ns = tracer._now() - span.start_ns
        if exc_type is not None:
            span.error = f"{exc_type.__name__}: {exc}"
        stack = tracer._open.spans
        if stack and stack[-1] is span:
            stack.pop()
        with tracer._lock:
            tracer.spans.append(span)
        return False


class _OpenSpans(threading.local):
    """One thread's open spans, innermost last."""

    def __init__(self) -> None:
        self.spans: list[Span] = []


class Tracer:
    """Collects spans and events; disabled (the process default), it
    records nothing."""

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.spans: list[Span] = []
        self.events: list[Event] = []
        self.pid = os.getpid()
        self._open = _OpenSpans()
        self._epoch_ns = time.perf_counter_ns()
        self._next_id = 0
        self._lock = threading.Lock()

    # -- clock ------------------------------------------------------------
    def _now(self) -> int:
        return time.perf_counter_ns() - self._epoch_ns

    # -- recording --------------------------------------------------------
    def span(self, name: str, category: str = "app", **attrs: Any):
        """Open a span as a context manager.  The ``with`` target is the
        :class:`Span` -- or, on a disabled tracer, the shared null span
        -- so ``sp.set(key=value)`` always works.
        """
        if not self.enabled:
            return NULL_SPAN
        stack = self._open.spans
        parent = stack[-1].span_id if stack else None
        span = Span(name=name, category=category,
                    span_id=self.reserve_ids(1),
                    parent_id=parent, start_ns=self._now(),
                    attributes=attrs,
                    tid=threading.get_ident() & 0xFFFF)
        return _SpanContext(self, span)

    def event(self, name: str, category: str = "app", **attrs: Any) -> None:
        """Record an instant event under the currently open span."""
        if not self.enabled:
            return
        stack = self._open.spans
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


#: Process-wide default: a *disabled* tracer (the null-recorder path).
NULL_TRACER = Tracer(enabled=False)

_tracer_stack = ScopeStack(NULL_TRACER)


def current_tracer() -> Tracer:
    """The tracer instrumented call sites report to (per thread)."""
    return _tracer_stack.top(NULL_TRACER)


def use_tracer(tracer: Tracer):
    """Scope the active tracer (e.g. for one CLI command or request)."""
    return _tracer_stack.scoped(tracer)
