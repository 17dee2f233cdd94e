"""The in-process serving engine: admission, single-flight, warm state.

:class:`AsyncServer` is the daemon's brain and directly usable from
tests and benchmarks without a socket.  It multiplexes many concurrent
plan/run/verify/audit requests over a small pool of worker threads,
each request executing through a warm :class:`repro.api.Session`:

- **admission control** -- at most ``queue_limit`` requests may be
  admitted beyond the ones actively executing; excess arrivals are
  rejected *immediately* with a typed ``overloaded`` envelope rather
  than queued unboundedly (``serve.rejected``).  Backpressure is
  explicit: the client knows at once, and the daemon's memory stays
  bounded under any burst;
- **single-flight coalescing** -- requests are keyed by
  :func:`repro.serve.protocol.request_key` (the rename-invariant plan
  fingerprint plus op/backend/scalars).  While one execution for a key
  is in flight, every further arrival with the same key awaits the
  same future and receives the same payload (``serve.coalesced``): a
  burst of N identical requests costs exactly one pipeline analysis;
- **warm state** -- sessions live in an LRU keyed by their plan
  fingerprint, all sharing one worker pool and one metrics registry,
  so repeat traffic reuses built plans, compiled kernels and spawned
  worker processes.  Evicted sessions are closed (their cached
  shared-memory plan segments unlinked); the shared pool survives
  until :meth:`AsyncServer.close`.

Every request runs under a per-request span (``serve.request``) on the
server's tracer and lands its latency in the ``serve.latency_ms``
histogram, so ``p50/p95/p99`` come straight out of the registry
snapshot.
"""

from __future__ import annotations

import asyncio
import threading
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from time import perf_counter
from typing import Optional

from repro.serve.protocol import (
    Overloaded,
    ProtocolError,
    Request,
    Response,
    request_key,
)

#: Default executor width: concurrent requests actually computing.
DEFAULT_CONCURRENCY = 4
#: Default bound on admitted-but-not-yet-executing requests.
DEFAULT_QUEUE_LIMIT = 32
#: Default number of warm sessions kept in the LRU.
DEFAULT_SESSIONS = 8


class AsyncServer:
    """The asyncio serving engine over warm :class:`~repro.api.Session`s."""

    def __init__(
        self,
        max_concurrency: int = DEFAULT_CONCURRENCY,
        queue_limit: int = DEFAULT_QUEUE_LIMIT,
        max_sessions: int = DEFAULT_SESSIONS,
        registry=None,
        tracer=None,
    ) -> None:
        from repro.obs.metrics import MetricsRegistry
        from repro.obs.trace import NULL_TRACER
        from repro.runtime.pool import WorkerPool

        self.max_concurrency = max(1, int(max_concurrency))
        self.queue_limit = max(0, int(queue_limit))
        self.max_sessions = max(1, int(max_sessions))
        self.registry = registry if registry is not None else MetricsRegistry()
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self._executor = ThreadPoolExecutor(
            max_workers=self.max_concurrency,
            thread_name_prefix="repro-serve")
        #: one warm pool shared by every session (sessions never own it)
        self._pool = WorkerPool()
        #: plan-key -> (Session, per-session lock); LRU, newest last
        self._sessions: "OrderedDict[tuple, tuple]" = OrderedDict()
        self._sessions_lock = threading.Lock()
        #: request-key -> asyncio.Future of the in-flight execution
        self._inflight: dict[tuple, asyncio.Future] = {}
        #: requests admitted (executing or queued for the executor)
        self._admitted = 0
        self._requests = 0
        self._closed = False
        self.shutdown_event = asyncio.Event()

    # -- lifecycle --------------------------------------------------------
    def close(self) -> None:
        """Shut the executor, every warm session, and the shared pool."""
        if self._closed:
            return
        self._closed = True
        self._executor.shutdown(wait=True)
        with self._sessions_lock:
            sessions = list(self._sessions.values())
            self._sessions.clear()
        for session, _lock in sessions:
            session.close()
        self._pool.shutdown()

    def __enter__(self) -> "AsyncServer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- warm sessions ----------------------------------------------------
    def _session_for(self, req: Request, session_key: tuple):
        """The warm session for a plan fingerprint (LRU, shared pool)."""
        from repro.api import Session

        with self._sessions_lock:
            hit = self._sessions.get(session_key)
            if hit is not None:
                self._sessions.move_to_end(session_key)
                self.registry.inc("serve.session.hit")
                return hit
            session = Session(
                req.nest,
                strategy=req.strategy,
                duplicate_arrays=req.duplicate_arrays,
                eliminate_redundant=req.eliminate_redundant,
                scalars=req.scalars,
                registry=self.registry,
                tracer=self.tracer,
                pool=self._pool,
            )
            entry = (session, threading.Lock())
            self._sessions[session_key] = entry
            self.registry.inc("serve.session.miss")
            evicted = []
            while len(self._sessions) > self.max_sessions:
                _, old = self._sessions.popitem(last=False)
                evicted.append(old[0])
                self.registry.inc("serve.session.evict")
            self.registry.set("serve.sessions", len(self._sessions))
        for old in evicted:
            old.close()
        return entry

    # -- execution (worker threads) ---------------------------------------
    def _execute(self, req: Request, session_key: tuple) -> Response:
        """Run one request to completion on an executor thread."""
        t0 = perf_counter()
        session, lock = self._session_for(req, session_key)
        with lock:
            warm = session._plan is not None
            with self.tracer.span("serve.request", category="serve",
                                  op=req.op, nest=req.nest[:40]):
                if req.op == "plan":
                    plan = session.plan()
                    result = {
                        "ok": True,
                        "loop": plan.nest.name,
                        "strategy": plan.strategy.value,
                        "blocks": plan.num_blocks,
                        "psi_dim": plan.psi.dim,
                        "summary": plan.summary(),
                    }
                elif req.op == "run":
                    result = session.run(backend=req.backend).to_json()
                elif req.op == "verify":
                    result = session.verify(backend=req.backend).to_json()
                elif req.op == "audit":
                    result = session.audit().to_json()
                else:  # pragma: no cover - dispatch guards earlier
                    raise ProtocolError(f"unexecutable op {req.op!r}")
        elapsed_ms = (perf_counter() - t0) * 1e3
        self.registry.observe("serve.latency_ms", elapsed_ms)
        ok = bool(result.get("ok", True))
        return Response(ok=ok, op=req.op, id=req.id, result=result,
                        warm=warm, elapsed_ms=round(elapsed_ms, 3))

    # -- the front door (event loop) --------------------------------------
    async def handle(self, frame: dict) -> dict:
        """One request frame in, one response frame out."""
        self._requests += 1
        self.registry.inc("serve.requests")
        op = frame.get("op", "") if isinstance(frame, dict) else ""
        try:
            req = Request.from_dict(frame)
            resp = await self._dispatch(req)
        except Exception as exc:  # noqa: BLE001 - the wire reports it
            from repro.analysis.references import NonUniformReferenceError
            from repro.core.strategy import UnknownArrayError
            from repro.runtime.seq import UnboundScalarError

            # the request's own nest is at fault, not the daemon
            if isinstance(exc, (NonUniformReferenceError, UnboundScalarError,
                                UnknownArrayError)):
                exc = ProtocolError(str(exc))
            resp = Response.failure(op, exc, id=_frame_id(frame))
            self.registry.inc("serve.errors")
            self.registry.inc(f"serve.errors.{resp.error['kind']}")
        if resp.ok:
            self.registry.inc("serve.ok")
        return resp.to_dict()

    async def _dispatch(self, req: Request) -> Response:
        if req.op == "status":
            return Response(ok=True, op="status", id=req.id,
                            result=self.status())
        if req.op == "shutdown":
            self.shutdown_event.set()
            return Response(ok=True, op="shutdown", id=req.id,
                            result={"ok": True, "stopping": True})
        try:
            key = request_key(req)
        except Exception as exc:
            raise ProtocolError(f"bad nest: {exc}") from None
        # sessions are per (plan fingerprint, scalars): the plan and
        # its kernels are shared via the global caches either way, but
        # a session bakes its scalar bindings in at construction
        session_key = (key[1], key[3])

        loop = asyncio.get_running_loop()
        # single-flight: piggyback on an identical in-flight execution
        existing = self._inflight.get(key)
        if existing is not None:
            self.registry.inc("serve.coalesced")
            resp: Response = await asyncio.shield(existing)
            return Response(ok=resp.ok, op=resp.op, id=req.id,
                            result=resp.result, error=resp.error,
                            coalesced=True, warm=resp.warm,
                            elapsed_ms=resp.elapsed_ms)

        # admission control: bound what waits for an executor slot
        if self._admitted >= self.max_concurrency + self.queue_limit:
            self.registry.inc("serve.rejected")
            raise Overloaded(
                f"server overloaded: {self._admitted} requests in "
                f"flight (capacity {self.max_concurrency}+"
                f"{self.queue_limit} queued)")

        self._admitted += 1
        self.registry.set("serve.inflight", self._admitted)
        future: asyncio.Future = loop.create_future()
        self._inflight[key] = future
        try:
            resp = await loop.run_in_executor(
                self._executor, self._execute, req, session_key)
            if not future.cancelled():
                future.set_result(resp)
            return resp
        except Exception as exc:
            if not future.cancelled():
                future.set_exception(exc)
                # coalesced waiters consume it; a lone request re-raises
                future.exception()
            raise
        finally:
            self._inflight.pop(key, None)
            self._admitted -= 1
            self.registry.set("serve.inflight", self._admitted)

    # -- introspection ----------------------------------------------------
    def status(self) -> dict:
        """The daemon-status payload (also the CLI's ``serve status``)."""
        reg = self.registry
        lat = reg.get("serve.latency_ms")
        if lat is not None and lat.count:
            snap = {"count": lat.count,
                    "mean": round(lat.mean, 3),
                    "p50": round(lat.quantile(0.50), 3),
                    "p95": round(lat.quantile(0.95), 3),
                    "p99": round(lat.quantile(0.99), 3)}
        else:
            snap = {}
        return {
            "ok": True,
            "requests": int(reg.value("serve.requests")),
            "completed": int(reg.value("serve.ok")),
            "errors": int(reg.value("serve.errors")),
            "rejected": int(reg.value("serve.rejected")),
            "coalesced": int(reg.value("serve.coalesced")),
            "inflight": self._admitted,
            "sessions": len(self._sessions),
            "session_hits": int(reg.value("serve.session.hit")),
            "latency_ms": snap,
            "pool_generation": getattr(self._pool, "generation", 0),
            "concurrency": self.max_concurrency,
            "queue_limit": self.queue_limit,
        }


def _frame_id(frame) -> Optional[str]:
    if isinstance(frame, dict):
        value = frame.get("id")
        return value if isinstance(value, str) else None
    return None
