"""Metrics registry: counter/gauge semantics and scoping."""

import pytest

from repro.obs import (
    METRICS,
    Counter,
    MetricsRegistry,
    current_registry,
    use_registry,
)


class TestCounter:
    def test_accumulates(self):
        reg = MetricsRegistry()
        reg.inc("c")
        reg.inc("c", 4)
        assert reg.value("c") == 5

    def test_rejects_decrease(self):
        c = Counter(name="c")
        with pytest.raises(ValueError):
            c.inc(-1)


class TestGauge:
    def test_holds_last_observation(self):
        reg = MetricsRegistry()
        reg.set("g", 10)
        reg.set("g", 3)
        assert reg.value("g") == 3


class TestRegistry:
    def test_kind_mismatch_raises(self):
        reg = MetricsRegistry()
        reg.inc("m")
        with pytest.raises(TypeError):
            reg.set("m", 1)

    def test_value_default_for_missing(self):
        reg = MetricsRegistry()
        assert reg.value("absent") == 0
        assert reg.value("absent", default=-1) == -1

    def test_names_sorted_and_len_contains(self):
        reg = MetricsRegistry()
        reg.inc("b")
        reg.set("a", 1)
        assert reg.names() == ["a", "b"]
        assert "a" in reg and "zzz" not in reg
        assert len(reg) == 2

    def test_snapshot_shapes(self):
        reg = MetricsRegistry()
        reg.inc("c", 2)
        reg.set("g", 1.5)
        assert reg.snapshot() == {"c": {"kind": "counter", "value": 2},
                                  "g": {"kind": "gauge", "value": 1.5}}


    def test_a_run_publishes_counters_and_gauges_only(self):
        from repro.api import Session

        reg = MetricsRegistry()
        with Session("L1", strategy="duplicate", registry=reg) as s:
            assert s.run().ok
        kinds = {m["kind"] for m in reg.snapshot().values()}
        assert kinds == {"counter", "gauge"}

class TestScoping:
    def test_default_is_the_process_registry(self):
        assert current_registry() is METRICS

    def test_use_registry_scopes_and_restores(self):
        reg = MetricsRegistry()
        with use_registry(reg) as active:
            assert active is reg
            current_registry().inc("scoped")
        assert reg.value("scoped") == 1
        assert current_registry() is METRICS
