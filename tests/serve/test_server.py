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

    def test_report_with_an_empty_duplicate_set(self):
        """``"duplicate_arrays": []`` replicates nothing, so the why-Psi
        section is the non-duplicate one, not Theorem 2's."""
        why = "why Psi looks like this"
        with AsyncServer() as srv:
            empty = run(srv.handle(dict(frame(op="report", nest="L1"),
                                        duplicate_arrays=[])))
            nondup = run(srv.handle(frame(op="report", nest="L1",
                                          strategy="nonduplicate")))
        assert empty["ok"] and nondup["ok"]
        body = empty["result"]["sections"][why]
        assert body == nondup["result"]["sections"][why]
        assert "from A: data-referenced vector r=(2, 1)" in body
        assert "from C: data-referenced vector r=(1, 1)" in body
        assert "kept under duplication" not in body

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

    def test_status_keeps_its_payload_keys(self):
        with AsyncServer() as srv:
            srv._observe_latency(2.0)
            st = srv.status()
        assert sorted(st) == sorted([
            "ok", "requests", "completed", "errors", "rejected",
            "coalesced", "inflight", "sessions", "session_hits",
            "latency_ms", "pool_generation", "concurrency", "queue_limit"])
        assert sorted(st["latency_ms"]) == ["count", "mean", "p50", "p95",
                                            "p99"]

    def test_shutdown_op_sets_event(self):
        async def go(srv):
            resp = await srv.handle({"op": "shutdown", "schema_version": 1})
            return resp, srv.shutdown_event.is_set()

        with AsyncServer() as srv:
            resp, is_set = run(go(srv))
        assert resp["ok"] and is_set


class TestLatencyWindow:
    """``status()``'s ``latency_ms``: nearest-rank quantiles over the
    newest :data:`LATENCY_WINDOW` latencies; ``count`` and ``mean`` over
    every request."""

    @staticmethod
    def latency(values):
        with AsyncServer() as srv:
            for ms in values:
                srv._observe_latency(ms)
            return srv.status()["latency_ms"]

    def test_an_empty_window_reports_nothing(self):
        assert self.latency([]) == {}

    def test_small_sample_is_exact_nearest_rank(self):
        # rank = ceil(q * n), 1-indexed into the sorted window
        lat = self.latency([40.0, 10.0, 30.0, 20.0])
        assert lat == {"count": 4, "mean": 25.0,
                       "p50": 20.0, "p95": 40.0, "p99": 40.0}

    def test_every_quantile_of_one_observation_is_it(self):
        assert self.latency([0.5]) == {"count": 1, "mean": 0.5, "p50": 0.5,
                                       "p95": 0.5, "p99": 0.5}

    def test_an_observed_value_is_answered_not_a_midpoint(self):
        lat = self.latency([1.1, 1.9])
        assert lat["p50"] == 1.1 and lat["p99"] == 1.9

    def test_past_the_window_only_the_newest_count(self):
        from repro.serve.server import LATENCY_WINDOW

        # a burst of slow requests, then a full window of fast ones
        lat = self.latency([1000.0] * 10 + [1.0] * LATENCY_WINDOW)
        assert lat["p50"] == lat["p99"] == 1.0
        assert lat["count"] == LATENCY_WINDOW + 10
        assert lat["mean"] == round(
            (10_000.0 + LATENCY_WINDOW) / (LATENCY_WINDOW + 10), 3)

    def test_a_hundred_ranks_are_the_quantiles(self):
        lat = self.latency([float(ms) for ms in range(100, 0, -1)])
        assert (lat["p50"], lat["p95"], lat["p99"]) == (50.0, 95.0, 99.0)

    def test_quantiles_are_monotone_and_observed(self):
        import random

        rng = random.Random(7)
        values = [round(rng.uniform(0.1, 50.0), 3) for _ in range(300)]
        lat = self.latency(values)
        assert lat["p50"] <= lat["p95"] <= lat["p99"] <= max(values)
        assert {lat["p50"], lat["p95"], lat["p99"]} <= set(values)

    def test_the_window_holds_only_the_newest(self):
        from repro.serve.server import LATENCY_WINDOW

        with AsyncServer() as srv:
            for ms in range(LATENCY_WINDOW + 5):
                srv._observe_latency(float(ms))
            assert len(srv._latencies) == LATENCY_WINDOW
            assert srv._latencies[0] == 5.0

    def test_an_executed_request_is_observed(self):
        async def go(srv):
            await srv.handle(frame())
            await srv.handle(frame())       # served warm, observed again
            return await srv.handle({"op": "status", "schema_version": 1})

        with AsyncServer() as srv:
            lat = run(go(srv))["result"]["latency_ms"]
        assert lat["count"] == 2
        assert 0 < lat["p50"] <= lat["p95"] <= lat["p99"]


class TestVerdicts:
    """The response's ``ok`` is the result's verdict: an op that ran and
    failed answers ``ok: false`` with the payload it found and a
    ``failed`` error carrying the line the CLI prints for it."""

    def test_an_uncertified_audit_is_failed(self, monkeypatch):
        from repro.obs.audit import audit_plan, inject_violation

        monkeypatch.setattr(
            Session, "audit", lambda self, **kw: audit_plan(
                inject_violation(self.plan()), backends=[]))
        with AsyncServer() as srv:
            resp = run(srv.handle(frame(op="audit", nest="L1")))
        assert not resp["ok"]
        assert resp["result"]["certified"] is False
        assert resp["error"] == {
            "kind": "failed",
            "reason": f"audit violation: {resp['result']['verdict']}"}

    def test_a_failed_verify_carries_the_clis_line(self, monkeypatch,
                                                   capsys):
        from repro.cli import main

        verify = Session.verify

        def wrong(self, **kw):
            report = verify(self, **kw)
            report.equal = False
            return report

        monkeypatch.setattr(Session, "verify", wrong)
        with AsyncServer() as srv:
            resp = run(srv.handle(frame()))
        assert not resp["ok"] and resp["result"]["equal"] is False
        assert resp["error"]["kind"] == "failed"
        assert main(["verify", "--loop", "L2", "--duplicate"]) == 1
        line = capsys.readouterr().err.splitlines()[-1]   # after the notes
        assert line == f"repro: {resp['error']['reason']}"
        assert line.startswith("repro: verification failed: verify [interp]")

    def test_audit_reconciles_the_backends_asked_for(self):
        from repro.obs.audit import audit_plan
        from repro.runtime.engine.base import available_backends

        with AsyncServer() as srv:
            every = run(srv.handle(frame(op="audit", nest="L1",
                                         backend="all")))
            one = run(srv.handle(frame(op="audit", nest="L1",
                                       backend="codegen")))
            default = run(srv.handle(frame(op="audit", nest="L1")))
        with Session("L1", strategy="duplicate") as s:
            direct = audit_plan(s.plan(), backends=available_backends())
        assert every["ok"] and one["ok"] and default["ok"]
        assert sorted(every["result"]["engine_runs"]) \
            == sorted(direct.engine_runs)
        assert len(direct.engine_runs) > 1
        assert list(one["result"]["engine_runs"]) == ["codegen"]
        assert list(default["result"]["engine_runs"]) == ["interp"]

    def test_a_plan_naming_a_backend_is_bad_request(self):
        with AsyncServer() as srv:
            resp = run(srv.handle(frame(op="plan", backend="interp")))
        assert resp["error"] == {
            "kind": "bad-request",
            "reason": "plan takes no backend (got 'interp')"}


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


def _source(name: str) -> str:
    from repro.lang import catalog
    from repro.lang.printer import to_source

    return to_source(getattr(catalog, name)())


def _renamed(source: str, **names: str) -> str:
    """``source`` with loop indices respelled (``i="x"``: ``i`` -> ``x``)."""
    import re

    return re.sub(r"\b[a-z]\w*\b",
                  lambda m: names.get(m.group(), m.group()), source)


#: three hot nests as the wire sends them: source text, not names
HOT = tuple(_source(name) for name in ("l1", "l4", "l5"))


def _novel(n: int) -> str:
    return f"for i = 1 to {n + 2} {{ S1: A[i] = A[i - 1] + {n}; }}"


@pytest.fixture
def parses(monkeypatch):
    """Counts calls of the mini-language parser from here on."""
    import repro.lang.parser as parser

    calls = []
    parse = parser.parse

    def counting(*args, **kw):
        calls.append(args)
        return parse(*args, **kw)

    monkeypatch.setattr(parser, "parse", counting)
    return calls


class TestParseOnce:
    """A request's nest text is parsed once per distinct text: the
    server remembers its nest and plan key, and a session miss builds
    the session from that nest."""

    def test_warm_requests_never_parse(self, parses):
        ops = ("plan", "run", "verify")

        async def go(srv):
            for nest in HOT:
                assert (await srv.handle(frame(nest=nest)))["ok"]
            warm = len(parses)
            for i in range(30):
                resp = await srv.handle(frame(op=ops[i % 3],
                                              nest=HOT[i // 3 % 3]))
                assert resp["ok"], resp
            hot = len(parses) - warm
            assert (await srv.handle(frame(nest=_novel(5))))["ok"]
            return hot, len(parses) - warm - hot

        with AsyncServer() as srv:
            assert run(go(srv)) == (0, 1)

    def test_a_renamed_source_shares_the_key_and_the_session(self, parses):
        from repro.serve.protocol import request_key

        l2 = _source("l2")
        x_y = _renamed(l2, i="x", j="y")
        assert x_y != l2 and "x + y" in x_y
        assert request_key(Request(op="verify", nest=l2)) \
            == request_key(Request(op="verify", nest=x_y))
        del parses[:]

        async def go(srv):
            return [await srv.handle(frame(nest=n)) for n in (l2, x_y)]

        with AsyncServer() as srv:
            first, second = run(go(srv))
            assert len(srv._sessions) == 1
            assert srv.registry.value("serve.session.hit") == 1
        assert second["warm"] and second["result"] == first["result"]
        assert len(parses) == 2     # one per distinct text

    def test_a_bad_nest_is_not_remembered(self, parses):
        async def twice(srv):
            return [await srv.handle(frame(nest="for broken {{{"))
                    for _ in range(2)]

        with AsyncServer() as srv:
            first, second = run(twice(srv))
            assert not srv._nests
        assert first == second
        assert first["error"]["kind"] == "bad-request"
        assert first["error"]["reason"].startswith("bad nest: ")
        assert len(parses) == 2

    def test_a_burst_of_one_novel_text_parses_once(self, parses):
        async def burst(srv):
            frames = [dict(frame(nest=_novel(9)), id=f"r{i}")
                      for i in range(6)]
            return await asyncio.gather(*[srv.handle(f) for f in frames])

        with AsyncServer(max_concurrency=2, queue_limit=8) as srv:
            resps = run(burst(srv))
            assert srv.registry.value("serve.coalesced") == 5
            assert srv.registry.value("serve.rejected") == 0
        assert all(r["ok"] for r in resps)
        assert len(parses) == 1

    def test_an_over_capacity_novel_text_is_refused_at_once(
            self, monkeypatch):
        """With the one executor slot busy, a novel text is ``overloaded``
        at once: nothing it needs waits for the slot."""
        import threading

        started, hold = threading.Event(), threading.Event()
        verify = Session.verify

        def held(self, *args, **kw):
            started.set()
            hold.wait(10)
            return verify(self, *args, **kw)

        monkeypatch.setattr(Session, "verify", held)

        async def go(srv):
            busy = asyncio.ensure_future(srv.handle(frame(nest=HOT[0])))
            try:
                while not started.is_set():
                    await asyncio.sleep(0.001)
                late = await asyncio.wait_for(
                    srv.handle(frame(nest=_novel(7))), timeout=5)
            finally:
                hold.set()
            return await busy, late

        with AsyncServer(max_concurrency=1, queue_limit=0) as srv:
            busy, late = run(go(srv))
            assert srv._admitted == 0
        assert busy["ok"]
        assert late["error"]["kind"] == "overloaded"

    def test_the_memo_is_bounded_and_a_pushed_out_text_still_answers(
            self, parses):
        from repro.serve.server import NEST_MEMO

        texts = [_novel(n) for n in range(3 * NEST_MEMO)]

        async def go(srv):
            for text in texts:
                resp = await srv.handle(frame(op="plan", nest=text,
                                              strategy="nonduplicate"))
                assert resp["ok"], resp
            assert len(srv._nests) == NEST_MEMO
            return await srv.handle(frame(op="run", nest=texts[0],
                                          strategy="nonduplicate"))

        with AsyncServer() as srv:
            again = run(go(srv))
        assert len(parses) == 3 * NEST_MEMO + 1
        with Session(texts[0]) as s:
            assert again["result"] == s.run().to_json()

    def test_a_session_rebuilt_after_eviction_answers_as_a_direct_one(self):
        async def go(srv):
            for nest in (HOT[0], HOT[1], HOT[2], HOT[0]):
                resp = await srv.handle(frame(op="run", nest=nest))
                assert resp["ok"], resp
            return resp

        with AsyncServer(max_sessions=2) as srv:
            rebuilt = run(go(srv))
            assert srv.registry.value("serve.session.evict") == 2
            assert srv.registry.value("serve.session.hit") == 0
        assert not rebuilt["warm"]
        with Session(HOT[0], strategy="duplicate") as s:
            assert rebuilt["result"] == s.run().to_json()


class TestFrames:
    """A frame is a shallow dict of the fields: byte-identical to the
    deep ``dataclasses.asdict`` copy it replaced."""

    @staticmethod
    def _reference(obj) -> bytes:
        from dataclasses import asdict

        from repro.serve.protocol import encode_frame

        data = asdict(obj)
        if isinstance(obj, Request):
            if data["duplicate_arrays"] is not None:
                data["duplicate_arrays"] = list(data["duplicate_arrays"])
        else:
            for field in ("result", "error"):
                if data[field] is None:
                    del data[field]
        return encode_frame(data)

    def test_every_op_and_field_encodes_as_asdict_did(self):
        from repro.api import OPS
        from repro.serve.protocol import ProtocolError, Response, encode_frame

        requests = [
            Request(op=op, nest=nest, strategy="duplicate",
                    duplicate_arrays=dup, scalars=scalars, id=f"r{n}")
            for n, (op, nest, dup, scalars) in enumerate(
                (op, nest, dup, scalars)
                for op in OPS
                for nest in ("L1", "L2", "L3", "L4", "L5", _novel(3))
                for dup in (None, ("A",))
                for scalars in (None, {"D": 2})
            )]

        async def answer(srv):
            return [await srv._dispatch(req) for req in requests]

        with AsyncServer() as srv:
            responses = run(answer(srv))
        responses.append(Response.failure("verify", ProtocolError("no")))
        assert all(r.ok for r in responses[:-1])
        for obj in (*requests, *responses):
            assert encode_frame(obj) == self._reference(obj)
