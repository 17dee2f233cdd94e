"""The performance ledger's taps still find what they wrap.

``benchmarks/ledger/spans.py`` measures ``repro`` from outside: it wraps
``make_arrays``, ``LocalMemory.allocate`` and ``Engine.run_blocks`` by
name, and ``census.py`` indexes the three span names unconditionally.
A refactor that stops calling one of them on ``Session.run`` or
``Session.audit`` would otherwise fail only in the ledger's own
self-test, with a bare ``KeyError``.  The harness is imported read-only;
a checkout without it (or without the numpy its oracle needs) skips.
"""

import sys
from pathlib import Path

import pytest

from repro.api import Session
from repro.lang import catalog

LEDGER = Path(__file__).resolve().parent.parent / "benchmarks" / "ledger"

pytestmark = pytest.mark.skipif(not (LEDGER / "spans.py").exists(),
                                reason="no benchmarks/ledger here")

LAYERS = ("runtime.make_arrays", "runtime.allocate", "runtime.engine")


@pytest.fixture
def spans(monkeypatch):
    """The harness's ``spans`` module, gone again afterwards."""
    before = set(sys.modules)
    monkeypatch.syspath_prepend(str(LEDGER))
    try:
        import spans
        import workloads  # noqa: F401 -- Taps.install taps its run_cli
    except ImportError as exc:              # the oracle needs numpy
        pytest.skip(f"ledger harness not importable: {exc}")
    yield spans
    for name in set(sys.modules) - before:
        origin = getattr(sys.modules[name], "__file__", None) or ""
        if Path(origin).parent == LEDGER:
            del sys.modules[name]


def tapped_layers(spans, op):
    """``op`` the way ``census.py`` runs one: -> (result, self times)."""
    rec = spans.Recorder()
    with spans.Taps(rec), rec.span(spans.OP_SPAN):
        result = op()
    return result, rec.self_times()


@pytest.mark.parametrize("strategy", ["duplicate", "nonduplicate"])
def test_tapped_run_records_every_runtime_layer(spans, strategy):
    with Session(catalog.matmul(4), strategy=strategy) as s:
        s.plan()
        result, times = tapped_layers(spans, lambda: s.run(backend="auto"))
    assert result.ok and result.backend == "codegen"
    assert all(times.get(layer, 0.0) > 0.0 for layer in LAYERS), times


def test_tapped_audit_records_every_runtime_layer(spans):
    with Session("L1", strategy="duplicate") as s:
        s.plan()
        report, times = tapped_layers(spans, s.audit)
    assert report.ok and report.certified
    assert all(times.get(layer, 0.0) > 0.0 for layer in LAYERS), times


def test_tapped_plan_records_cache_and_pass_layers(spans, monkeypatch):
    """Cold then warm ``Session.plan()``: the plan-cache taps name the
    outcome (``tapped_get`` hands ``PlanCache.get`` its second parameter
    positionally) and every pass run is one ``pipeline.<pass>`` span --
    the same executions ``repro``'s own tracer calls ``pass:<pass>``."""
    from repro.pipeline import passes

    monkeypatch.setattr(passes.PLAN_CACHE, "directory", None)
    passes.PLAN_CACHE.clear()
    rec = spans.Recorder()
    with spans.Taps(rec), rec.span(spans.OP_SPAN):
        with Session("L1", trace=True) as cold:
            cold.plan()
        with Session("L1", trace=True) as warm:
            warm.plan()
    names = [sp.name for sp in rec.spans]        # in closing order
    assert [n for n in names if n.startswith("pipeline.cache.")] == [
        "pipeline.cache.miss", "pipeline.cache.put",
        "pipeline.cache.mem_hit"]
    ran = [s.name for s in cold.tracer.find(category="pipeline")]
    assert ran == ["pass:extract-refs", "pass:eliminate-redundancy",
                   "pass:choose-space", "pass:partition"]
    assert warm.tracer.find(category="pipeline") == []
    tapped = [n for n in names if n.startswith("pipeline.")
              and n.split(".")[1] not in ("cache", "driver")]
    assert tapped == [n.replace("pass:", "pipeline.") for n in ran]
