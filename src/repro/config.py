"""The one module that reads the process environment.

Nothing in the paper's allocation is tunable, so what the environment
may say is limited to where files live and which platform shape to
emulate (CI's ``engine-parity`` axes).  Every variable is a row of
:data:`KNOBS` -- default, parser, one-line doc -- and :func:`get` is the
only accessor: it reads ``os.environ`` at call time (pool workers
inherit the parent's environment; tests flip variables between runs),
treats unset and empty alike, and raises a ``ValueError`` naming the
variable when the value does not parse.  docs/API.md carries
:func:`render_table` verbatim (``python -m repro.config`` prints it;
``tests/test_config.py`` compares the two).

This module imports nothing from ``repro``.
"""

from __future__ import annotations

import os
from typing import Any, Callable, NamedTuple


class Knob(NamedTuple):
    default: Any
    parse: Callable[[str], Any]
    doc: str


def _not_zero(text: str) -> bool:
    return text.strip() != "0"


KNOBS: dict[str, Knob] = {
    "REPRO_PLAN_CACHE_DIR": Knob(None, str,
        "directory persisting plans across processes (unset: in-memory only)"),
    "REPRO_CODEGEN_CACHE_DIR": Knob(None, str,
        "on-disk kernel cache directory (unset: `<cache-root>/codegen`)"),
    "REPRO_BLACKBOX_DIR": Knob(None, str,
        "where `repro-blackbox-*.json` dumps are written and searched "
        "(unset: the working directory)"),
    "REPRO_SERVE_SOCKET": Knob(None, str,
        "daemon socket path (unset: `<cache-root>/serve.sock`)"),
    "REPRO_NO_NUMPY": Knob(False, bool,
        "any value: behave as if numpy were not installed (no `vectorized` "
        "tier, no shared-memory store)"),
    "REPRO_NO_SHM": Knob(False, bool,
        "any value: multiprocess leases ship by value, no shared-memory store"),
    "REPRO_CODEGEN_DISK": Knob(True, _not_zero,
        "`0`: keep generated kernels in-process only"),
    "REPRO_MP_WORKERS": Knob(None, int,
        "multiprocess pool size (unset: CPU count, at most 8)"),
    "XDG_CACHE_HOME": Knob(None, str,
        "`<cache-root>` is `$XDG_CACHE_HOME/repro` (unset: `~/.cache/repro`)"),
}


def get(name: str) -> Any:
    """The parsed value of ``name``, or its default when unset or empty."""
    knob = KNOBS[name]
    raw = os.environ.get(name)
    if not raw:
        return knob.default
    try:
        return knob.parse(raw)
    except ValueError as exc:
        raise ValueError(f"{name}={raw!r}: {exc}") from None


def render_table() -> str:
    """The markdown knob table docs/API.md carries."""
    rows = ["| variable | meaning |", "| --- | --- |"]
    rows += [f"| `{name}` | {knob.doc} |" for name, knob in KNOBS.items()]
    return "\n".join(rows)


if __name__ == "__main__":  # pragma: no cover
    print(render_table())
