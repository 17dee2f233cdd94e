"""The versioned wire protocol of the serving layer.

One request and one response per line (JSON-lines framing, UTF-8,
``\\n``-terminated), every frame stamped with ``schema_version`` so a
client and a daemon from different checkouts fail loudly instead of
misreading each other.  The payload of a successful response is
exactly the ``to_json()`` dict of the Summary-protocol result the
matching :class:`repro.api.Session` method returns -- the wire carries
nothing a direct caller would not also see.

Errors travel as a typed envelope (``kind`` + ``reason``) reusing the
CLI's uniform ``repro: <reason>`` failure strings, so a client can
branch on the kind (``bad-request`` / ``unsupported-schema`` /
``overloaded`` / ``failed`` / ``internal``) and still print the exact
line the CLI would have printed.

:func:`request_key` is the single-flight identity: the rename-invariant
plan-cache fingerprint of the nest plus everything else that changes
the answer (op, backend, scalars).  Two requests with equal keys are
the *same work* and the server answers both from one execution.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from typing import Any, Mapping, Optional

#: Bump on any incompatible frame change.
SCHEMA_VERSION = 1

#: Hard per-frame byte cap -- a malformed client cannot balloon the
#: daemon's line buffer.
MAX_FRAME_BYTES = 4 * 1024 * 1024

#: The ops a request may carry, in dispatch order.
OPS = ("plan", "run", "verify", "audit", "status", "shutdown")


class ProtocolError(ValueError):
    """A frame the protocol rejects; ``kind`` mirrors the error envelope."""

    kind = "bad-request"

    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


class UnsupportedSchema(ProtocolError):
    kind = "unsupported-schema"


class Overloaded(ProtocolError):
    """Admission control rejected the request (bounded queue full)."""

    kind = "overloaded"


def _check(data: Mapping[str, Any], field: str, ok, what: str) -> None:
    """A present (non-null) ``field`` must satisfy ``ok``: a frame is
    input from outside, and a wrong type is the sender's error."""
    value = data.get(field)
    if value is not None and not ok(value):
        raise ProtocolError(f"field {field!r} must be {what}, "
                            f"got {type(value).__name__}")


@dataclass(frozen=True)
class Request:
    """One unit of work for the serving layer.

    ``nest`` is anything :class:`repro.api.Session` accepts as its
    first argument: a catalog name (``"L2"``) or mini-language source
    text.  The strategy/duplication/elimination triple mirrors
    ``build_plan``; ``scalars`` are the symbolic parameter bindings.
    """

    op: str
    nest: str = ""
    strategy: str = "nonduplicate"
    duplicate_arrays: Optional[tuple[str, ...]] = None
    eliminate_redundant: bool = False
    backend: Optional[str] = None
    scalars: Optional[dict] = None
    #: client-chosen correlation id, echoed verbatim on the response
    id: Optional[str] = None
    schema_version: int = SCHEMA_VERSION

    def __post_init__(self) -> None:
        if self.duplicate_arrays is not None:
            object.__setattr__(self, "duplicate_arrays",
                               tuple(sorted(self.duplicate_arrays)))

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "Request":
        if not isinstance(data, Mapping):
            raise ProtocolError("frame is not a JSON object")
        version = data.get("schema_version", None)
        if version != SCHEMA_VERSION:
            raise UnsupportedSchema(
                f"schema_version {version!r} unsupported "
                f"(daemon speaks {SCHEMA_VERSION})")
        op = data.get("op")
        if op not in OPS:
            raise ProtocolError(
                f"unknown op {op!r} (expected one of {', '.join(OPS)})")
        if op not in ("status", "shutdown") and not data.get("nest"):
            raise ProtocolError(f"op {op!r} requires a nest")
        unknown = set(data) - {f for f in cls.__dataclass_fields__}
        if unknown:
            raise ProtocolError(
                f"unknown fields: {', '.join(sorted(unknown))}")
        for field in ("nest", "backend", "strategy", "id"):
            _check(data, field, lambda v: isinstance(v, str), "a string")
        _check(data, "eliminate_redundant",
               lambda v: isinstance(v, bool), "true or false")
        _check(data, "duplicate_arrays",
               lambda v: isinstance(v, list)
               and all(isinstance(name, str) for name in v),
               "a list of array names")
        _check(data, "scalars",
               lambda v: isinstance(v, dict) and all(
                   isinstance(x, (int, float)) and not isinstance(x, bool)
                   for x in v.values()),
               "an object of name -> number")
        strategy = data.get("strategy", "nonduplicate")
        if strategy not in ("nonduplicate", "duplicate"):
            raise ProtocolError(
                f"unknown strategy {strategy!r} "
                "(expected nonduplicate or duplicate)")
        if data.get("backend") is not None:
            from repro.runtime.engine.base import unknown_backend

            refusal = unknown_backend(data["backend"],
                                      cross_check=op != "run")
            if refusal:
                raise ProtocolError(refusal)
        dup = data.get("duplicate_arrays")
        return cls(
            op=op,
            nest=data.get("nest", ""),
            strategy=strategy,
            duplicate_arrays=tuple(dup) if dup is not None else None,
            eliminate_redundant=data.get("eliminate_redundant", False),
            backend=data.get("backend"),
            scalars=dict(data["scalars"]) if data.get("scalars") else None,
            id=data.get("id"),
        )

    def to_dict(self) -> dict:
        data = asdict(self)
        if data["duplicate_arrays"] is not None:
            data["duplicate_arrays"] = list(data["duplicate_arrays"])
        return data


@dataclass(frozen=True)
class Response:
    """The answer to one request.

    ``result`` is the Summary-protocol ``to_json()`` dict on success
    and absent on error; ``error`` is the typed envelope on failure.
    ``coalesced`` marks responses served by single-flight fan-out from
    another request's execution; ``warm`` marks ones answered by an
    already-planned session.
    """

    ok: bool
    op: str = ""
    id: Optional[str] = None
    result: Optional[dict] = None
    error: Optional[dict] = None
    coalesced: bool = False
    warm: bool = False
    elapsed_ms: float = 0.0
    schema_version: int = SCHEMA_VERSION

    @classmethod
    def failure(cls, op: str, exc: Exception,
                id: Optional[str] = None) -> "Response":
        kind = getattr(exc, "kind", "internal")
        reason = getattr(exc, "reason", None) or str(exc) or repr(exc)
        return cls(ok=False, op=op, id=id,
                   error={"kind": kind, "reason": reason})

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "Response":
        if not isinstance(data, Mapping):
            raise ProtocolError("frame is not a JSON object")
        version = data.get("schema_version", None)
        if version != SCHEMA_VERSION:
            raise UnsupportedSchema(
                f"schema_version {version!r} unsupported "
                f"(client speaks {SCHEMA_VERSION})")
        return cls(ok=bool(data.get("ok")), op=data.get("op", ""),
                   id=data.get("id"), result=data.get("result"),
                   error=data.get("error"),
                   coalesced=bool(data.get("coalesced", False)),
                   warm=bool(data.get("warm", False)),
                   elapsed_ms=float(data.get("elapsed_ms", 0.0)))

    def to_dict(self) -> dict:
        data = asdict(self)
        if data["result"] is None:
            del data["result"]
        if data["error"] is None:
            del data["error"]
        return data

    def reason(self) -> str:
        """The CLI-style ``repro: <reason>`` string for a failure."""
        if self.ok:
            return ""
        err = self.error or {}
        return err.get("reason", "request failed")


# ---------------------------------------------------------------------------
# framing
# ---------------------------------------------------------------------------

def encode_frame(obj: Any) -> bytes:
    """One JSON-lines frame: compact JSON + ``\\n``."""
    if hasattr(obj, "to_dict"):
        obj = obj.to_dict()
    data = json.dumps(obj, separators=(",", ":"), sort_keys=True)
    raw = data.encode("utf-8") + b"\n"
    if len(raw) > MAX_FRAME_BYTES:
        raise ProtocolError(f"frame of {len(raw)} bytes exceeds "
                            f"{MAX_FRAME_BYTES}")
    return raw


def decode_frame(line: bytes) -> dict:
    """The JSON object of one received line."""
    if len(line) > MAX_FRAME_BYTES:
        raise ProtocolError(f"frame of {len(line)} bytes exceeds "
                            f"{MAX_FRAME_BYTES}")
    try:
        obj = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"undecodable frame: {exc}") from None
    if not isinstance(obj, dict):
        raise ProtocolError("frame is not a JSON object")
    return obj


# ---------------------------------------------------------------------------
# the single-flight identity
# ---------------------------------------------------------------------------

def request_key(req: Request) -> tuple:
    """What makes two requests *the same work*.

    The nest participates via its rename-invariant canonical
    fingerprint (:func:`repro.lang.fingerprint.plan_cache_key`), so
    ``for i/for j`` and ``for x/for y`` over the same structure -- or a
    catalog name and its spelled-out source -- coalesce on purpose.
    Everything else that changes the answer (op, backend, scalars)
    keeps distinct work distinct.
    """
    from repro.api import _coerce_nest

    nest = _coerce_nest(req.nest)
    plan_key = _plan_key(nest, req)
    scalars = (tuple(sorted(req.scalars.items()))
               if req.scalars else None)
    return (req.op, plan_key, req.backend, scalars)


def _plan_key(nest, req: Request) -> tuple:
    from repro.lang.fingerprint import plan_cache_key

    return plan_cache_key(nest, req.strategy, req.duplicate_arrays,
                          req.eliminate_redundant)


# ---------------------------------------------------------------------------
# the JSON-native contract
# ---------------------------------------------------------------------------

_NATIVE = (str, int, float, bool, type(None))


def ensure_json_native(obj: Any, path: str = "$") -> Any:
    """Assert ``obj`` is built purely from JSON-native types.

    The wire carries Summary-protocol ``to_json()`` dicts verbatim;
    this walks one and raises :class:`TypeError` naming the offending
    path when any non-native value (a Fraction, a numpy scalar, a set,
    a dataclass) leaks through.  Returns ``obj`` so it can be used
    inline.  ``bool`` is checked before ``int`` on purpose -- both are
    fine; what is *not* fine is anything whose ``json.dumps`` would
    need a default hook.
    """
    if isinstance(obj, dict):
        for k, v in obj.items():
            if not isinstance(k, str):
                raise TypeError(f"{path}: non-string key {k!r} "
                                f"({type(k).__name__})")
            ensure_json_native(v, f"{path}.{k}")
        return obj
    if isinstance(obj, (list, tuple)):
        if isinstance(obj, tuple):
            raise TypeError(f"{path}: tuple is not JSON-native "
                            "(serializes, but does not round-trip)")
        for i, v in enumerate(obj):
            ensure_json_native(v, f"{path}[{i}]")
        return obj
    # exact-type check: numpy scalars subclass float/int in some
    # builds, but bool/int/float/str/None themselves are the contract
    if type(obj) in _NATIVE or isinstance(obj, bool):
        return obj
    if isinstance(obj, (int, float, str)) and type(obj) not in _NATIVE:
        raise TypeError(f"{path}: {type(obj).__name__} subclass of a "
                        "native type; coerce before serializing")
    raise TypeError(f"{path}: {type(obj).__name__} is not JSON-native")


__all__ = [
    "SCHEMA_VERSION", "MAX_FRAME_BYTES", "OPS",
    "ProtocolError", "UnsupportedSchema", "Overloaded",
    "Request", "Response",
    "encode_frame", "decode_frame",
    "request_key", "ensure_json_native",
]
