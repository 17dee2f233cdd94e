"""The numpy switch, for the two places that compute with numpy.

Arrays, block memories and the run's flat store are Python lists
(:mod:`repro.runtime.arrays`, :mod:`repro.runtime.layout`); numpy is
used only by the ``vectorized`` tier (lock-step lanes over the store's
lists as arrays) and by the shared-memory block store (flat ndarray
views over ``multiprocessing.shared_memory`` segments), and only they
import this module -- a process that runs neither never imports numpy.

``REPRO_NO_NUMPY`` (any value) makes both behave as if numpy were not
installed: ``vectorized`` degrades down its fallback chain and the
multiprocess engine ships leases by value.  CI runs that axis, plus a
real uninstall.  Readers re-check :data:`np` at call time, so a test
can monkeypatch ``numpy_compat.np = None`` and back.
"""

from __future__ import annotations

from repro import config


def _load_numpy():
    if config.get("REPRO_NO_NUMPY"):
        return None
    try:
        import numpy
    except ImportError:  # pragma: no cover - exercised in the no-numpy CI job
        return None
    return numpy


#: The numpy module, or ``None`` when missing/disabled.  Mutable on purpose.
np = _load_numpy()


def have_numpy() -> bool:
    return np is not None
