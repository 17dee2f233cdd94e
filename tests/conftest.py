"""Shared fixtures: the paper's loops and standard scalar bindings."""

import pytest

from repro.lang import catalog


@pytest.fixture(autouse=True)
def _isolated_blackbox_dir(tmp_path_factory, monkeypatch):
    """Keep blackbox dumps out of the repo: tests that exercise
    failure paths (chaos non-recovery, CLI errors) dump blackboxes, and
    without this they land in the cwd.  Deliberately not the test's own
    ``tmp_path`` -- tests assert on its contents."""
    d = tmp_path_factory.mktemp("blackbox")
    monkeypatch.setenv("REPRO_BLACKBOX_DIR", str(d))


@pytest.fixture
def l1():
    return catalog.l1()


@pytest.fixture
def l2():
    return catalog.l2()


@pytest.fixture
def l3():
    return catalog.l3()


@pytest.fixture
def l4():
    return catalog.l4()


@pytest.fixture
def l5():
    return catalog.l5()


@pytest.fixture
def scalars():
    """Bindings for every free scalar appearing in the catalog loops."""
    return {"D": 2.0, "F": 3.0, "G": 1.5, "K": 0.5}
