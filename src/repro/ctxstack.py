"""Thread-aware ambient-scope stacks.

The ambient scoping helpers scattered through the repository --
``use_registry`` / ``use_tracer`` (obs), ``use_pool`` (runtime) and
``use_fault_plan`` (scheduler) -- used to push onto plain module-level
lists.  That is correct for a
single-threaded CLI run, but the serving daemon (:mod:`repro.serve`)
executes many requests concurrently on worker threads: with one shared
list, thread A's ``finally: stack.pop()`` can remove the entry thread B
just pushed, silently rebinding B's metrics registry or worker pool
mid-request.

:class:`ScopeStack` fixes the shape once for all four sites: every
thread sees its own stack, seeded with the shared *base* entries (the
process-wide defaults like ``METRICS`` or the null tracer), so

- scopes entered on one thread are invisible to -- and unpoppable
  by -- every other thread;
- a thread that never scopes anything still reads the process default;
- exits are matched by identity, so even a mispaired teardown cannot
  drop someone else's entry.

Deliberately *not* inherited across thread spawn (unlike
``contextvars`` copied into executor tasks): a daemon worker thread
must start from the process defaults, not from whatever scope the
event-loop thread happened to be in when the executor was created.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Any, Iterator, Optional


class ScopeStack:
    """One ambient-scope stack, isolated per thread above a shared base."""

    def __init__(self, *base: Any) -> None:
        self._base = tuple(base)
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = list(self._base)
        return stack

    # -- queries ----------------------------------------------------------
    def top(self, default: Any = None) -> Any:
        """The innermost scoped value on *this* thread (or the base)."""
        stack = self._stack()
        return stack[-1] if stack else default

    def depth(self) -> int:
        """Scoped entries above the shared base, on this thread."""
        return len(self._stack()) - len(self._base)

    # -- scoping ----------------------------------------------------------
    @contextmanager
    def scoped(self, value: Any) -> Iterator[Any]:
        """Push ``value`` for the duration of the ``with`` block."""
        stack = self._stack()
        stack.append(value)
        try:
            yield value
        finally:
            if stack and stack[-1] is value:
                stack.pop()
            else:  # pragma: no cover - mispaired teardown
                for i in range(len(stack) - 1, -1, -1):
                    if stack[i] is value:
                        del stack[i]
                        break
