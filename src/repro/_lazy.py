"""Lazy package surfaces (PEP 562).

A package ``__init__`` imports nothing: it declares which submodule
defines each public name and resolves a name the first time it is read,
so importing one submodule never executes its siblings.
"""

from __future__ import annotations

import sys
from importlib import import_module


def lazy_surface(package: str, table: dict[str, tuple[str, ...]]):
    """-> ``(__getattr__, __dir__, __all__)`` for ``package``.

    ``table`` maps a submodule to the names it provides; a name equal to
    its submodule is the submodule itself (``repro.lang.catalog``).
    Resolution goes through the import lock and then caches the value on
    the package, which is idempotent, so concurrent first reads are safe.
    """
    where = {name: sub for sub, names in table.items() for name in names}

    def __getattr__(name: str):
        sub = where.get(name)
        if sub is None:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}")
        value = import_module(f"{package}.{sub}")
        if name != sub:
            value = getattr(value, name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> list[str]:
        return sorted(set(vars(sys.modules[package])) | set(where))

    return __getattr__, __dir__, list(where)
