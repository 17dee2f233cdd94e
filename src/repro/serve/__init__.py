"""Async batch serving: one warm process, many concurrent requests.

The serving layer fronts :class:`repro.api.Session` with an asyncio
server so many clients can plan / run / verify / audit concurrently
against one warm process -- hot plans stay planned, codegen kernels
stay compiled, the worker pool stays spawned.  Three pieces:

- :mod:`repro.serve.protocol` -- the versioned JSON-lines wire
  protocol (frozen request/response dataclasses, typed error
  envelopes, the single-flight fingerprint);
- :mod:`repro.serve.server` -- :class:`AsyncServer`, the in-process
  engine: admission control with bounded queues, single-flight
  coalescing of identical requests, an LRU of warm sessions sharing
  one worker pool and one metrics registry;
- :mod:`repro.serve.daemon` / :mod:`repro.serve.client` -- the Unix
  domain socket daemon (``repro serve start/stop/status``) and the
  blocking client used by the CLI, the CI smoke test and the bench.
"""

from repro._lazy import lazy_surface

__getattr__, __dir__, __all__ = lazy_surface(__name__, {
    "protocol": (
        "SCHEMA_VERSION", "Overloaded", "ProtocolError", "Request",
        "Response", "decode_frame", "encode_frame",
        "ensure_json_native", "request_key",
    ),
    "server": ("AsyncServer",),
    "client": ("ServeClient",),
    "daemon": ("default_socket_path",),
})
