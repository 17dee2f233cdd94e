"""AsyncServer: single-flight, admission control, warm sessions, errors."""

import asyncio

import pytest

from repro.api import Session
from repro.serve import AsyncServer, Request
from tests.serve.test_protocol import WRONG_TYPED, wrong_typed_frame


def run(coro):
    return asyncio.run(coro)


def frame(op="verify", nest="L2", strategy="duplicate", **kw):
    return Request(op=op, nest=nest, strategy=strategy, **kw).to_dict()


class TestSingleFlight:
    def test_identical_burst_runs_once(self):
        """N concurrent identical requests: one pipeline analysis, one
        plan-cache miss, N responses."""
        from repro.pipeline import PLAN_CACHE

        async def burst(srv):
            frames = [dict(frame(), id=f"r{i}") for i in range(8)]
            return await asyncio.gather(*[srv.handle(f) for f in frames])

        PLAN_CACHE.clear()  # a cold cache: the burst itself must miss once
        with AsyncServer(max_concurrency=4, queue_limit=16) as srv:
            resps = run(burst(srv))
            assert len(resps) == 8
            assert all(r["ok"] for r in resps)
            # exactly one execution analyzed the nest...
            assert srv.registry.value("cache.miss") == 1
            assert srv.registry.value("serve.session.miss") == 1
            # ...and everyone else piggybacked on it
            assert srv.registry.value("serve.coalesced") == 7
            assert sum(r["coalesced"] for r in resps) == 7

    def test_responses_bit_identical_to_direct_session(self):
        async def one(srv):
            return await asyncio.gather(
                *[srv.handle(dict(frame(op="run"), id=f"r{i}"))
                  for i in range(4)])

        with AsyncServer() as srv:
            resps = run(one(srv))
        with Session("L2", strategy="duplicate") as s:
            direct = s.run().to_json()
        for r in resps:
            assert r["result"] == direct

    def test_correlation_ids_echoed_per_waiter(self):
        async def burst(srv):
            frames = [dict(frame(), id=f"client-{i}") for i in range(5)]
            return await asyncio.gather(*[srv.handle(f) for f in frames])

        with AsyncServer() as srv:
            resps = run(burst(srv))
        assert sorted(r["id"] for r in resps) == sorted(
            f"client-{i}" for i in range(5))

    def test_sequential_repeat_hits_warm_session(self):
        async def twice(srv):
            first = await srv.handle(frame())
            second = await srv.handle(frame())
            return first, second

        with AsyncServer() as srv:
            first, second = run(twice(srv))
        assert not first["warm"]
        assert second["warm"]
        assert srv.registry.value("serve.session.hit") == 1


class TestAdmissionControl:
    def test_over_capacity_burst_gets_typed_rejections(self):
        """Distinct requests beyond capacity are rejected immediately
        with the typed ``overloaded`` envelope, never queued silently."""
        async def burst(srv):
            frames = [dict(frame(scalars={"D": float(i)}), id=f"r{i}")
                      for i in range(5)]
            return await asyncio.gather(*[srv.handle(f) for f in frames])

        with AsyncServer(max_concurrency=1, queue_limit=0) as srv:
            resps = run(burst(srv))
        ok = [r for r in resps if r["ok"]]
        rejected = [r for r in resps if not r["ok"]]
        assert len(ok) == 1
        assert len(rejected) == 4
        for r in rejected:
            assert r["error"]["kind"] == "overloaded"
            assert "overloaded" in r["error"]["reason"]
        assert srv.registry.value("serve.rejected") == 4

    def test_coalesced_requests_bypass_admission(self):
        """Identical requests don't consume queue slots -- a burst of
        the same work always fans out from the one admitted flight."""
        async def burst(srv):
            frames = [dict(frame(), id=f"r{i}") for i in range(6)]
            return await asyncio.gather(*[srv.handle(f) for f in frames])

        with AsyncServer(max_concurrency=1, queue_limit=0) as srv:
            resps = run(burst(srv))
        assert all(r["ok"] for r in resps)
        assert srv.registry.value("serve.rejected") == 0

    def test_capacity_recovers_after_burst(self):
        async def go(srv):
            frames = [dict(frame(scalars={"D": float(i)}), id=f"r{i}")
                      for i in range(3)]
            await asyncio.gather(*[srv.handle(f) for f in frames])
            return await srv.handle(frame(op="run"))

        with AsyncServer(max_concurrency=1, queue_limit=0) as srv:
            late = run(go(srv))
        assert late["ok"]


class TestErrors:
    def test_bad_nest_is_bad_request(self):
        with AsyncServer() as srv:
            resp = run(srv.handle(frame(nest="for broken {{{")))
        assert not resp["ok"]
        assert resp["error"]["kind"] == "bad-request"
        assert srv.registry.value("serve.errors.bad-request") == 1

    @pytest.mark.parametrize("nest, reason", [
        ("for i = 1 to 4 { A[i] = B[i] * alpha; }",
         "unbound name 'alpha': not a loop index and no scalar binding"),
        ("for i = 1 to 4 { A[i/2] = B[i]; }",
         "subscript of A has non-integer coefficients: (1/2)*i"),
    ], ids=["unbound-scalar", "non-integer-subscript"])
    def test_a_nest_outside_the_model_is_bad_request(self, nest, reason):
        with AsyncServer() as srv:
            resp = run(srv.handle(frame(nest=nest, strategy="nonduplicate")))
            again = run(srv.handle(frame(op="run")))
        assert not resp["ok"]
        assert resp["error"] == {"kind": "bad-request", "reason": reason}
        assert srv.registry.value("serve.errors.bad-request") == 1
        assert srv.registry.value("serve.errors.internal") == 0
        assert again["ok"]   # the daemon is none the worse

    def test_an_unknown_duplicate_array_is_bad_request(self):
        with AsyncServer() as srv:
            resp = run(srv.handle(frame(op="plan", nest="L1",
                                        duplicate_arrays=("Z",))))
            again = run(srv.handle(frame(op="status")))
        assert resp["error"] == {
            "kind": "bad-request",
            "reason": "unknown arrays in duplicate_arrays: ['Z'] "
                      "(the nest's arrays: A, B, C)"}
        assert srv.registry.value("serve.errors.internal") == 0
        assert again["ok"]   # the daemon stays up

    @pytest.mark.parametrize("case", sorted(WRONG_TYPED))
    def test_a_wrong_typed_field_is_answered_and_counted(self, case):
        with AsyncServer() as srv:
            resp = run(srv.handle(wrong_typed_frame(case)))
            again = run(srv.handle(frame(op="plan")))
        assert not resp["ok"] and resp["op"] == "verify"
        assert resp["error"]["kind"] == "bad-request"
        assert case.partition("-")[0] in resp["error"]["reason"]
        assert srv.registry.value("serve.errors.bad-request") == 1
        assert srv.registry.value("serve.errors.internal") == 0
        assert again["ok"]

    def test_a_crash_is_still_internal(self, monkeypatch):
        def boom(self, backend=None):
            raise KeyError("not the request's doing")

        monkeypatch.setattr(Session, "verify", boom)
        with AsyncServer() as srv:
            resp = run(srv.handle(frame()))
        assert resp["error"]["kind"] == "internal"
        assert srv.registry.value("serve.errors.internal") == 1

    def test_schema_mismatch_is_typed(self):
        with AsyncServer() as srv:
            bad = frame()
            bad["schema_version"] = 999
            resp = run(srv.handle(bad))
        assert not resp["ok"]
        assert resp["error"]["kind"] == "unsupported-schema"

    def test_error_responses_echo_the_id(self):
        with AsyncServer() as srv:
            bad = {"op": "nope", "id": "x1", "schema_version": 1}
            resp = run(srv.handle(bad))
        assert resp["id"] == "x1"
        assert resp["error"]["kind"] == "bad-request"


class TestOps:
    def test_plan_op(self):
        with AsyncServer() as srv:
            resp = run(srv.handle(frame(op="plan")))
        assert resp["ok"]
        assert resp["result"]["blocks"] == 16
        assert resp["result"]["strategy"] == "duplicate"

    def test_audit_op(self):
        with AsyncServer() as srv:
            resp = run(srv.handle(frame(op="audit")))
        assert resp["ok"]
        assert resp["result"]["certified"]

    def test_a_zero_trip_nest_runs_over_the_wire(self):
        zero_trip = "for i = 5 to 1 { S1: A[i] = A[i - 1] + 1; }"
        with AsyncServer() as srv:
            resp = run(srv.handle(frame(op="run", nest=zero_trip,
                                        strategy="nonduplicate",
                                        backend="auto")))
        assert resp["ok"], resp
        assert resp["result"]["ok"]
        assert resp["result"]["executed_iterations"] == 0

    def test_status_op(self):
        async def go(srv):
            await srv.handle(frame())
            return await srv.handle({"op": "status", "schema_version": 1})

        with AsyncServer() as srv:
            resp = run(go(srv))
        st = resp["result"]
        assert st["ok"] and st["requests"] == 2
        assert st["completed"] == 1
        assert st["latency_ms"]["count"] == 1

    def test_shutdown_op_sets_event(self):
        async def go(srv):
            resp = await srv.handle({"op": "shutdown", "schema_version": 1})
            return resp, srv.shutdown_event.is_set()

        with AsyncServer() as srv:
            resp, is_set = run(go(srv))
        assert resp["ok"] and is_set


class TestWarmState:
    def test_sessions_share_one_pool(self):
        async def go(srv):
            a = await srv.handle(frame(op="run", backend="multiprocess"))
            b = await srv.handle(dict(
                frame(op="run", nest="L1", backend="multiprocess")))
            return a, b

        with AsyncServer() as srv:
            a, b = run(go(srv))
            assert a["ok"] and b["ok"]
            # both multiprocess runs reused the server's one pool: it
            # spawned exactly once
            assert srv._pool.generation == 1

    def test_session_lru_evicts_and_closes(self):
        async def go(srv):
            for nest in ("L1", "L2", "L3"):
                resp = await srv.handle(frame(op="plan", nest=nest))
                assert resp["ok"]

        with AsyncServer(max_sessions=2) as srv:
            run(go(srv))
            assert len(srv._sessions) == 2
            assert srv.registry.value("serve.session.evict") == 1

    def test_close_is_idempotent(self):
        srv = AsyncServer()
        run(srv.handle(frame(op="plan")))
        srv.close()
        srv.close()
