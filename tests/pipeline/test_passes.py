"""Pass manager mechanics: ordering, prefixes, injection, scheduling."""

import pytest

from repro.lang import catalog
from repro.pipeline import (
    PassManager,
    PipelineConfig,
    PipelineContext,
    run_pipeline,
)
from repro.pipeline.passes import (
    Pass,
    PassOrderError,
    PipelineError,
    STANDARD_PASSES,
    UnknownPassError,
)


STANDARD_NAMES = ["extract-refs", "eliminate-redundancy", "choose-space",
                  "partition", "transform", "map", "verify"]


def default_manager() -> PassManager:
    return PassManager(STANDARD_PASSES)


class TestRegistry:
    def test_standard_order(self):
        assert default_manager().names() == STANDARD_NAMES

    def test_register_duplicate_name_rejected(self):
        m = default_manager()
        with pytest.raises(ValueError, match="already registered"):
            m.register(STANDARD_PASSES[0])

    def test_unknown_pass(self):
        with pytest.raises(UnknownPassError):
            default_manager().pass_index("no-such-pass")

    def test_ordering_validated_on_register(self):
        """A pass may not be placed before the passes feeding it."""
        m = PassManager(STANDARD_PASSES[:1])
        needs_plan = Pass(name="needs-plan", inputs=("plan",),
                          outputs=("late",), run=lambda ctx: None)
        with pytest.raises(PassOrderError, match="needs-plan"):
            m.register(needs_plan)


class TestPrefix:
    def test_upto_partition_stops_early(self, l1):
        ctx = run_pipeline(l1, PipelineConfig(use_cache=False),
                           upto="partition")
        assert ctx.completed[-1] == "partition"
        assert not ctx.has("tnest") and not ctx.has("grid")

    def test_upto_transform(self, l4):
        ctx = run_pipeline(l4, PipelineConfig(use_cache=False),
                           upto="transform")
        assert ctx.has("tnest") and not ctx.has("grid")

    def test_demand_driven_verify_skips_mapping(self, l1):
        """verify needs only the plan; transform/map stay out of the run."""
        ctx = run_pipeline(l1, PipelineConfig(use_cache=False), upto="verify")
        assert ctx.verification.ok
        assert "transform" not in ctx.completed
        assert "map" not in ctx.completed

    def test_map_requires_processors(self, l4):
        with pytest.raises(PipelineError, match="processors"):
            run_pipeline(l4, PipelineConfig(use_cache=False), upto="map")

    def test_map_with_processors(self, l4):
        ctx = run_pipeline(l4, PipelineConfig(processors=4, use_cache=False),
                           upto="map")
        assert ctx.grid.size == 4
        assert ctx.assignment is not None


class TestInjectionAndReplacement:
    def test_injected_model_skips_extraction(self, l1):
        from repro.analysis import extract_references

        model = extract_references(l1)
        ctx = run_pipeline(l1, PipelineConfig(use_cache=False),
                           upto="partition", model=model)
        assert ctx.plan.model is model
        assert "extract-refs" not in ctx.completed

    def test_replace_pass(self, l1):
        """A swapped implementation runs in place of the original."""
        m = default_manager()
        calls = []

        def spy_extract(ctx):
            calls.append(ctx.nest.name)
            STANDARD_PASSES[0].run(ctx)

        m.replace("extract-refs",
                  Pass(name="extract-refs", inputs=("nest",),
                       outputs=("model",), run=spy_extract))
        ctx = run_pipeline(l1, PipelineConfig(use_cache=False),
                           upto="partition", manager=m)
        assert calls == [l1.name]
        assert ctx.plan.num_blocks == 7

    def test_replace_keeps_validation(self):
        m = default_manager()
        bad = Pass(name="choose-space", inputs=("breakdown",),
                   outputs=("breakdown",), run=lambda ctx: None)
        with pytest.raises(PassOrderError):
            m.replace("choose-space", bad)


class TestContext:
    def test_require_missing_artifact(self, l1):
        ctx = PipelineContext(nest=l1, config=PipelineConfig())
        with pytest.raises(KeyError, match="not available"):
            ctx.require("plan")

    def test_completed_records_run_order(self, l1):
        ctx = run_pipeline(l1, PipelineConfig(use_cache=False),
                           upto="partition")
        assert ctx.completed == ["extract-refs", "eliminate-redundancy",
                                 "choose-space", "partition"]
