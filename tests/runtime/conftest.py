"""Fixtures shared by the runtime tests."""

import pytest

from repro.runtime import numpy_compat as npc


@pytest.fixture(params=["numpy", "pygrid"])
def backing(request, monkeypatch):
    """Run the test with the numpy switch on, then off (what
    ``REPRO_NO_NUMPY`` does: no ``vectorized`` tier, no shared-memory
    store).  Arrays are flat lists either way; the second id still says
    ``pygrid`` because the test ids are pinned."""
    if request.param == "pygrid":
        monkeypatch.setattr(npc, "np", None)
    elif not npc.have_numpy():
        pytest.skip("numpy not available")
    return request.param
