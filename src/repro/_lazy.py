"""Lazy package surfaces (PEP 562), and values derived lazily beside
their owner (:class:`Sidecar`).

A package ``__init__`` imports nothing: it declares which submodule
defines each public name and resolves a name the first time it is read,
so importing one submodule never executes its siblings.  Every package
loads this module, so every layer can keep a derived fact in a
:class:`Sidecar` without importing another.
"""

from __future__ import annotations

import sys
import weakref
from importlib import import_module
from typing import Callable


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


class _Ref(weakref.ref):
    """A weak reference to a :class:`Sidecar` owner that knows its key."""

    __slots__ = ("key",)


class Sidecar:
    """Values derived from an object, cached beside it while it lives.

    Keyed by ``id(owner)`` under a weak reference: owners stay
    picklable, an id reused after collection cannot hit, dead entries
    are dropped.  ``build(owner, *args)`` runs to completion *before*
    its value is published, so an exception leaves no entry behind --
    except one of the ``negative`` types, which is remembered and
    raised again by every later ``get`` (finding a plan unsupported
    costs as much as deriving its tables).  The owner's identity is the
    whole key: a plan is a value, so what was derived from it holds for
    as long as it lives.
    """

    def __init__(self, build: Callable, negative: tuple = ()) -> None:
        self._build = build
        self._negative = negative
        #: id(owner) -> (weakref, value, None or a refusal's (type, args))
        self._entries: dict[int, tuple] = {}
        # drops an entry as its owner dies, before the id can be reused
        self._drop = lambda ref: self._entries.pop(ref.key, None)

    def get(self, owner, *args):
        key = id(owner)
        ref, value, refusal = self._entries.get(key, (None, None, None))
        if ref is None or ref() is not owner:
            try:
                value, refusal = self._build(owner, *args), None
            except self._negative as exc:
                # its type and args, not the exception: once raised it
                # holds every frame it passed through, and with them
                # the run's plan, store and memories
                value, refusal = None, (type(exc), exc.args)
            ref = _Ref(owner, self._drop)
            ref.key = key
            self._entries[key] = (ref, value, refusal)
        if refusal is not None:
            kind, exc_args = refusal
            raise kind(*exc_args)
        return value
