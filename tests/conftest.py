"""Shared fixtures: the paper's loops and standard scalar bindings, and
``--order=reverse|shuffle:SEED``, which runs the suite in another order."""

import random

import pytest

from repro.lang import catalog


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
def image_calls(monkeypatch):
    """One entry per ``AccessMap.image`` call from here on: each is a
    planner's data block enumerated."""
    from repro.core.partition import AccessMap

    calls, image = [], AccessMap.image

    def counted(access, points):
        calls.append(access)
        return image(access, points)

    monkeypatch.setattr(AccessMap, "image", counted)
    return calls


@pytest.fixture
def scalars():
    """Bindings for every free scalar appearing in the catalog loops."""
    return {"D": 2.0, "F": 3.0, "G": 1.5, "K": 0.5}


def pytest_addoption(parser):
    parser.addoption(
        "--order", default="forward", metavar="reverse|shuffle:SEED",
        help="run test modules, and the tests within each, reversed or "
             "shuffled by SEED: a test that needs another's leftovers "
             "fails")


def pytest_collection_modifyitems(config, items):
    order = config.getoption("order")
    if order == "forward":
        return
    modules: dict = {}
    for item in items:
        modules.setdefault(item.nodeid.split("::")[0], []).append(item)
    groups = list(modules.values())
    if order == "reverse":
        groups.reverse()
        for group in groups:
            group.reverse()
    elif order.startswith("shuffle:") and order[len("shuffle:"):].isdigit():
        rng = random.Random(int(order[len("shuffle:"):]))
        rng.shuffle(groups)
        for group in groups:
            rng.shuffle(group)
    else:
        raise pytest.UsageError(
            f"--order {order!r}: expected reverse or shuffle:SEED")
    items[:] = [item for group in groups for item in group]
