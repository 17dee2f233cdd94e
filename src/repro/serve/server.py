"""The in-process serving engine: admission, single-flight, warm state.

:class:`AsyncServer` is the daemon's brain and directly usable from
tests and benchmarks without a socket.  It multiplexes many concurrent
plan/run/verify/audit/report requests over a small pool of worker threads,
each request running its row of the op table (:data:`repro.api.OPS`,
the same rows the CLI runs) on a warm :class:`repro.api.Session`:

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
- **warm state** -- a request's exact nest text is parsed and
  fingerprinted once (an LRU of :data:`NEST_MEMO` texts), and sessions
  live in an LRU keyed by their plan fingerprint, built from that
  parsed nest, all sharing one worker pool and one metrics registry,
  so repeat traffic reuses parsed nests, built plans, compiled kernels
  and spawned worker processes.  Evicted sessions are closed; the
  shared pool survives until :meth:`AsyncServer.close`.

Every request runs under a per-request span (``serve.request``) on the
server's tracer, and its latency joins a window of the newest
:data:`LATENCY_WINDOW`, over which :meth:`AsyncServer.status` reports
nearest-rank ``p50/p95/p99`` (``count`` and ``mean`` cover every
request).
"""

from __future__ import annotations

import asyncio
import math
import threading
from collections import OrderedDict, deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from time import perf_counter

from repro.serve.protocol import (
    Overloaded,
    ProtocolError,
    Request,
    Response,
    parsed_nest,
    request_key,
)

#: Default executor width: concurrent requests actually computing.
DEFAULT_CONCURRENCY = 4
#: Default bound on admitted-but-not-yet-executing requests.
DEFAULT_QUEUE_LIMIT = 32
#: Default number of warm sessions kept in the LRU.
DEFAULT_SESSIONS = 8
#: Distinct request texts whose parsed nest and plan key are remembered.
NEST_MEMO = 16
#: The newest request latencies ``status()`` takes quantiles over.
LATENCY_WINDOW = 1024


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
        #: request text -> (LoopNest, plan key); LRU, event loop only
        self._nests: "OrderedDict[tuple, tuple]" = OrderedDict()
        #: request-key -> asyncio.Future of the in-flight execution
        self._inflight: dict[tuple, asyncio.Future] = {}
        #: requests admitted (executing or queued for the executor)
        self._admitted = 0
        self._requests = 0
        #: the newest latencies (ms); count and sum over every request
        self._latencies: deque = deque(maxlen=LATENCY_WINDOW)
        self._latency_count = 0
        self._latency_sum = 0.0
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
    def _session_for(self, req: Request, nest, session_key: tuple):
        """The warm session for a plan fingerprint (LRU, shared pool)."""
        from repro.api import Session

        with self._sessions_lock:
            hit = self._sessions.get(session_key)
            if hit is not None:
                self._sessions.move_to_end(session_key)
                self.registry.inc("serve.session.hit")
                return hit
            session = Session(
                nest,
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
    def _execute(self, req: Request, nest, session_key: tuple) -> Response:
        """Run one request's op-table row on an executor thread."""
        from repro.api import OPS

        t0 = perf_counter()
        op = OPS[req.op]
        session, lock = self._session_for(req, nest, session_key)
        with lock:
            warm = session._plan is not None
            with self.tracer.span("serve.request", category="serve",
                                  op=req.op, nest=req.nest[:40]):
                result = op(session, req.backend)
                payload = result.to_json()
        elapsed_ms = (perf_counter() - t0) * 1e3
        # a failed verdict still carries its payload: what the op found
        reason = op.reason(result)
        error = None if reason is None else {"kind": "failed",
                                             "reason": reason}
        return Response(ok=result.ok, op=req.op, id=req.id, result=payload,
                        error=error, warm=warm,
                        elapsed_ms=round(elapsed_ms, 3))

    # -- the front door (event loop) --------------------------------------
    async def handle(self, frame: dict) -> dict:
        """One request frame in, one response frame out."""
        self._requests += 1
        self.registry.inc("serve.requests")
        fields = frame if isinstance(frame, dict) else {}
        try:
            req = Request.from_dict(frame)
            resp = await self._dispatch(req)
        except Exception as exc:  # noqa: BLE001 - the wire reports it
            from repro.api import input_error

            # the request's own nest is at fault, not the daemon
            reason = input_error(exc)
            if reason is not None:
                exc = ProtocolError(reason)
            frame_id = fields.get("id")
            resp = Response.failure(
                fields.get("op", ""), exc,
                id=frame_id if isinstance(frame_id, str) else None)
            self.registry.inc("serve.errors")
            self.registry.inc(f"serve.errors.{resp.error['kind']}")
        if resp.ok:
            self.registry.inc("serve.ok")
        return resp.to_dict()

    async def _dispatch(self, req: Request) -> Response:
        own = {"status": self.status, "shutdown": self._shutdown}.get(req.op)
        if own is not None:     # the daemon's own ops, not op-table rows
            return Response(ok=True, op=req.op, id=req.id, result=own())
        nest, plan_key = self._parsed(req)
        key = request_key(req, plan_key)
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
            return replace(resp, id=req.id, coalesced=True)

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
                self._executor, self._execute, req, nest, session_key)
            self._observe_latency(resp.elapsed_ms)
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

    def _parsed(self, req: Request) -> tuple:
        """``(LoopNest, plan key)`` of the request's exact text, parsed
        once per distinct text; a text that does not parse is not kept."""
        text = (req.nest, req.strategy, req.duplicate_arrays,
                req.eliminate_redundant)
        if text not in self._nests:
            try:
                self._nests[text] = parsed_nest(req)
            except Exception as exc:
                raise ProtocolError(f"bad nest: {exc}") from None
            if len(self._nests) > NEST_MEMO:
                self._nests.popitem(last=False)
        self._nests.move_to_end(text)
        return self._nests[text]

    def _shutdown(self) -> dict:
        self.shutdown_event.set()
        return {"ok": True, "stopping": True}

    # -- introspection ----------------------------------------------------
    def _observe_latency(self, ms: float) -> None:
        """One executed request's latency (on the event loop)."""
        self._latencies.append(ms)
        self._latency_count += 1
        self._latency_sum += ms

    def status(self) -> dict:
        """The daemon-status payload (also the CLI's ``serve status``)."""
        reg = self.registry
        snap = {}
        if self._latency_count:
            window = sorted(self._latencies)
            snap = {"count": self._latency_count,
                    "mean": round(self._latency_sum / self._latency_count,
                                  3)}
            for key, q in (("p50", 0.50), ("p95", 0.95), ("p99", 0.99)):
                # nearest rank: the ceil(q * n)-th smallest
                rank = max(1, math.ceil(q * len(window)))
                snap[key] = round(window[rank - 1], 3)
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

