"""Fixtures shared by the runtime tests."""

import pytest

from repro.runtime import numpy_compat as npc


@pytest.fixture(params=["numpy", "pygrid"])
def backing(request, monkeypatch):
    """Run the test once per grid backing: ndarray, and ``PyGrid`` (numpy
    switched off the way the shim's own callers see it)."""
    if request.param == "pygrid":
        monkeypatch.setattr(npc, "np", None)
    elif not npc.have_numpy():
        pytest.skip("numpy not available")
    return request.param
