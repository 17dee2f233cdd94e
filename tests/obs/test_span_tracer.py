"""Span tracer: null fast path, nesting, errors, scoping."""

import pytest

from repro.obs import (
    NULL_SPAN,
    NULL_TRACER,
    Tracer,
    current_tracer,
    use_tracer,
)


class TestNullPath:
    def test_default_tracer_is_disabled(self):
        assert current_tracer() is NULL_TRACER
        assert not current_tracer().enabled

    def test_disabled_span_is_the_shared_singleton(self):
        t = Tracer(enabled=False)
        assert t.span("anything", category="x", a=1) is NULL_SPAN
        assert t.span("other") is NULL_SPAN

    def test_null_span_is_inert(self):
        with NULL_SPAN as sp:
            assert sp is NULL_SPAN
            assert sp.set(a=1, b=2) is NULL_SPAN

    def test_disabled_tracer_records_nothing(self):
        t = Tracer(enabled=False)
        with t.span("a"):
            t.event("e")
        assert t.spans == [] and t.events == []


class TestRecording:
    def test_span_fields(self):
        t = Tracer()
        with t.span("work", category="test", n=3) as sp:
            assert sp is not NULL_SPAN
        (s,) = t.spans
        assert s.name == "work"
        assert s.category == "test"
        assert s.attributes["n"] == 3
        assert s.duration_ns >= 0
        assert s.parent_id is None

    def test_nesting_records_parents(self):
        t = Tracer()
        with t.span("outer") as outer:
            with t.span("inner") as inner:
                with t.span("leaf") as leaf:
                    pass
        assert inner.parent_id == outer.span_id
        assert leaf.parent_id == inner.span_id
        # children finish (and are appended) before their parents
        assert [s.name for s in t.spans] == ["leaf", "inner", "outer"]

    def test_set_attaches_attributes(self):
        t = Tracer()
        with t.span("s") as sp:
            sp.set(outcome="hit").set(extra=1)
        assert t.spans[0].attributes == {"outcome": "hit", "extra": 1}

    def test_exception_recorded_and_propagated(self):
        t = Tracer()
        with pytest.raises(ValueError):
            with t.span("boom"):
                raise ValueError("nope")
        (s,) = t.spans
        assert s.error == "ValueError: nope"

    def test_event_attaches_to_open_span(self):
        t = Tracer()
        with t.span("ctx") as sp:
            t.event("hit", category="cache", key="k")
        (e,) = t.events
        assert e.span_id == sp.span_id
        assert e.attributes == {"key": "k"}

    def test_event_without_open_span(self):
        t = Tracer()
        t.event("orphan")
        assert t.events[0].span_id is None

    def test_find_and_categories(self):
        t = Tracer()
        with t.span("a", category="one"):
            pass
        with t.span("b", category="two"):
            pass
        assert [s.name for s in t.find(category="one")] == ["a"]
        assert [s.name for s in t.find(name="b")] == ["b"]
        assert t.categories() == {"one", "two"}

    def test_clear(self):
        t = Tracer()
        with t.span("a"):
            t.event("e")
        t.clear()
        assert t.spans == [] and t.events == []

    def test_span_ids_are_unique(self):
        t = Tracer()
        for _ in range(5):
            with t.span("x"):
                pass
        ids = [s.span_id for s in t.spans]
        assert len(set(ids)) == 5


class TestScoping:
    def test_use_tracer_scopes_and_restores(self):
        t = Tracer()
        assert current_tracer() is NULL_TRACER
        with use_tracer(t) as active:
            assert active is t
            assert current_tracer() is t
        assert current_tracer() is NULL_TRACER

    def test_instrumented_call_sites_see_the_scoped_tracer(self):
        from repro.runtime.engine import resolve_engine

        t = Tracer()
        with use_tracer(t):
            resolve_engine("interp")
        (s,) = t.find("engine.resolve")
        assert s.attributes["requested"] == "interp"
        assert s.attributes["resolved"] == "interp"
