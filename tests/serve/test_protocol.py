"""Wire protocol: framing, versioning, typed errors, single-flight keys."""

import json

import pytest

from repro.serve.protocol import (
    MAX_FRAME_BYTES,
    SCHEMA_VERSION,
    Overloaded,
    ProtocolError,
    Request,
    Response,
    UnsupportedSchema,
    decode_frame,
    encode_frame,
    ensure_json_native,
    request_key,
)


class TestFraming:
    def test_request_round_trips(self):
        req = Request(op="verify", nest="L2", strategy="duplicate",
                      scalars={"D": 2.0}, id="r1")
        back = Request.from_dict(decode_frame(encode_frame(req)))
        assert back == req

    def test_response_round_trips(self):
        resp = Response(ok=True, op="run", id="r2",
                        result={"ok": True, "blocks": 16},
                        coalesced=True, warm=True, elapsed_ms=1.5)
        back = Response.from_dict(decode_frame(encode_frame(resp)))
        assert back == resp

    def test_frames_are_single_lines(self):
        raw = encode_frame(Request(op="status"))
        assert raw.endswith(b"\n")
        assert raw.count(b"\n") == 1

    def test_error_response_round_trips_envelope(self):
        resp = Response.failure("run", Overloaded("server overloaded: full"))
        back = Response.from_dict(decode_frame(encode_frame(resp)))
        assert not back.ok
        assert back.error["kind"] == "overloaded"
        assert back.reason() == "server overloaded: full"

    def test_undecodable_frame_rejected(self):
        with pytest.raises(ProtocolError):
            decode_frame(b"not json\n")
        with pytest.raises(ProtocolError):
            decode_frame(b"[1, 2, 3]\n")

    def test_oversized_frame_rejected(self):
        with pytest.raises(ProtocolError):
            decode_frame(b"x" * (MAX_FRAME_BYTES + 1))


class TestValidation:
    def test_schema_version_mismatch_typed(self):
        frame = Request(op="status").to_dict()
        frame["schema_version"] = SCHEMA_VERSION + 1
        with pytest.raises(UnsupportedSchema):
            Request.from_dict(frame)

    def test_missing_schema_version_rejected(self):
        with pytest.raises(UnsupportedSchema):
            Request.from_dict({"op": "status"})

    def test_unknown_op_rejected(self):
        with pytest.raises(ProtocolError, match="unknown op"):
            Request.from_dict({"op": "compile",
                               "schema_version": SCHEMA_VERSION})

    def test_work_ops_require_a_nest(self):
        for op in ("plan", "run", "verify", "audit"):
            with pytest.raises(ProtocolError, match="requires a nest"):
                Request.from_dict({"op": op,
                                   "schema_version": SCHEMA_VERSION})

    def test_unknown_fields_rejected(self):
        with pytest.raises(ProtocolError, match="unknown fields"):
            Request.from_dict({"op": "status", "shiny": 1,
                               "schema_version": SCHEMA_VERSION})

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ProtocolError, match="unknown strategy"):
            Request.from_dict({"op": "plan", "nest": "L2",
                               "strategy": "triplicate",
                               "schema_version": SCHEMA_VERSION})


#: a wrong-typed value per request field, over a frame otherwise fine
WRONG_TYPED = {
    "nest": 7,
    "backend": ["codegen"],
    "backend-unknown": "bogus",
    "strategy": 2,
    "id": 41,
    "scalars": [1, 2],
    "scalars-value": {"D": "2"},
    "scalars-bool": {"D": True},
    "duplicate_arrays": 5,
    "duplicate_arrays-item": ["A", 3],
    "duplicate_arrays-string": "A,B",
    "eliminate_redundant": "yes",
}


def wrong_typed_frame(case: str, op: str = "verify") -> dict:
    field = case.partition("-")[0]
    return {"schema_version": SCHEMA_VERSION, "op": op, "nest": "L1",
            field: WRONG_TYPED[case]}


class TestFieldTypes:
    """A frame is input from outside: a wrong-typed field is refused as
    the sender's error, by name, before anything runs."""

    @pytest.mark.parametrize("case", sorted(WRONG_TYPED))
    def test_wrong_typed_field_is_bad_request(self, case):
        with pytest.raises(ProtocolError) as exc:
            Request.from_dict(wrong_typed_frame(case))
        assert exc.value.kind == "bad-request"
        assert case.partition("-")[0] in exc.value.reason

    def test_unknown_backend_lists_the_known_ones(self):
        with pytest.raises(ProtocolError) as exc:
            Request.from_dict(wrong_typed_frame("backend-unknown"))
        assert exc.value.reason == (
            "unknown backend 'bogus'; known: auto, compiled, codegen, "
            "interp, multiprocess, vectorized, all")

    def test_every_field_well_typed_is_accepted(self):
        req = Request.from_dict({
            "schema_version": SCHEMA_VERSION, "op": "verify", "nest": "L1",
            "strategy": "duplicate", "duplicate_arrays": ["B", "A"],
            "eliminate_redundant": True, "backend": "all",
            "scalars": {"D": 2, "F": 3.5}, "id": "r1"})
        assert req.duplicate_arrays == ("A", "B")
        assert req.scalars == {"D": 2, "F": 3.5}
        assert Request.from_dict(req.to_dict()) == req


class TestRequestKey:
    def test_identical_requests_collide(self):
        a = Request(op="verify", nest="L2", strategy="duplicate")
        b = Request(op="verify", nest="L2", strategy="duplicate")
        assert request_key(a) == request_key(b)

    def test_rename_invariance(self):
        """``for i/j`` and ``for x/y`` over the same structure coalesce."""
        src_ij = """
        for i = 1 to 4 { for j = 1 to 4 {
          A[i, j] = A[i - 1, j - 1] + 1;
        } }
        """
        src_xy = """
        for x = 1 to 4 { for y = 1 to 4 {
          A[x, y] = A[x - 1, y - 1] + 1;
        } }
        """
        a = Request(op="verify", nest=src_ij)
        b = Request(op="verify", nest=src_xy)
        assert request_key(a) == request_key(b)

    def test_distinct_work_stays_distinct(self):
        base = dict(nest="L2", strategy="duplicate")
        key = request_key(Request(op="verify", **base))
        assert request_key(Request(op="run", **base)) != key
        assert request_key(Request(op="verify", nest="L2")) != key
        assert request_key(
            Request(op="verify", backend="compiled", **base)) != key
        assert request_key(
            Request(op="verify", scalars={"D": 2.0}, **base)) != key

    def test_duplicate_array_order_is_canonical(self):
        a = Request(op="plan", nest="L5", strategy="duplicate",
                    duplicate_arrays=("B", "A"))
        b = Request(op="plan", nest="L5", strategy="duplicate",
                    duplicate_arrays=("A", "B"))
        assert request_key(a) == request_key(b)


class TestEnsureJsonNative:
    def test_accepts_native_trees(self):
        obj = {"a": [1, 2.5, "x", None, True], "b": {"c": []}}
        assert ensure_json_native(obj) is obj

    @pytest.mark.parametrize("bad, fragment", [
        ({"a": (1, 2)}, "tuple"),
        ({"a": {1: "x"}}, "non-string key"),
        ({"a": {"b": {"c": set()}}}, "$.a.b.c"),
        ({"a": [complex(1)]}, "$.a[0]"),
    ])
    def test_rejects_non_native(self, bad, fragment):
        with pytest.raises(TypeError, match=None) as exc:
            ensure_json_native(bad)
        assert fragment in str(exc.value)

    def test_rejects_numeric_subclasses(self):
        class FancyFloat(float):
            pass

        with pytest.raises(TypeError, match="subclass"):
            ensure_json_native({"v": FancyFloat(1.0)})

    def test_matches_json_dumps_strictness(self):
        """Whatever the checker passes, json.dumps must serialize."""
        obj = {"a": [1, 2.5, "x", None, True], "b": {"c": [{"d": 0}]}}
        ensure_json_native(obj)
        json.dumps(obj)
