"""clcache-style miss-reason breakdown on the plan cache."""

from repro.lang import catalog
from repro.pipeline import PipelineConfig, MissReason
from repro.pipeline.cache import PlanCache


def key(nest, **cfg):
    return PlanCache.key_for(nest, PipelineConfig(**cfg))


class TestClassification:
    def test_first_lookup_is_new_fingerprint(self):
        cache = PlanCache()
        assert cache.get(key(catalog.l1())) is None
        assert cache.miss_reasons[MissReason.NEW_FINGERPRINT] == 1
        assert cache.miss_reasons[MissReason.OPTIONS_CHANGE] == 0
        assert cache.miss_reasons[MissReason.EVICTED] == 0

    def test_same_nest_different_options_is_options_change(self):
        from repro.core import Strategy, build_plan

        cache = PlanCache()
        k_plain = key(catalog.l2())
        cache.get(k_plain)
        cache.put(k_plain, build_plan(catalog.l2()))
        k_dup = key(catalog.l2(), strategy=Strategy.DUPLICATE)
        assert cache.get(k_dup) is None
        assert cache.miss_reasons[MissReason.NEW_FINGERPRINT] == 1
        assert cache.miss_reasons[MissReason.OPTIONS_CHANGE] == 1

    def test_lru_drop_is_evicted(self):
        from repro.core import build_plan

        cache = PlanCache(maxsize=1)
        k1 = key(catalog.l1())
        k2 = key(catalog.l2())
        cache.get(k1)
        cache.put(k1, build_plan(catalog.l1()))
        cache.get(k2)
        cache.put(k2, build_plan(catalog.l2()))  # evicts k1
        assert cache.evictions == 1
        assert cache.get(k1) is None
        assert cache.miss_reasons[MissReason.EVICTED] == 1

    def test_reput_after_eviction_clears_the_mark(self):
        from repro.core import build_plan

        cache = PlanCache(maxsize=1)
        k1, k2 = key(catalog.l1()), key(catalog.l2())
        cache.put(k1, build_plan(catalog.l1()))
        cache.put(k2, build_plan(catalog.l2()))  # evicts k1
        cache.put(k1, build_plan(catalog.l1()))  # back in
        assert cache.get(k1) is not None

    def test_clear_resets_breakdown(self):
        cache = PlanCache()
        cache.get(key(catalog.l1()))
        cache.clear()
        assert cache.miss_reasons == {r: 0 for r in MissReason.ALL}
        assert cache.get(key(catalog.l1())) is None
        assert cache.miss_reasons[MissReason.NEW_FINGERPRINT] == 1

    def test_the_history_stays_bounded_and_recent_keys_keep_reasons(self):
        """12 000 novel nests leave the remembered fingerprints and
        evictions at 4 x maxsize; the recent ones still classify."""
        from repro.obs import MetricsRegistry

        cache = PlanCache(maxsize=8)
        novel = [(f"fp{n}", "nonduplicate", None, False)
                 for n in range(12_000)]
        for k in novel:
            cache.put(k, object(), MetricsRegistry())
        assert len(cache._fingerprints) <= 4 * cache.maxsize
        assert len(cache._evicted) <= 4 * cache.maxsize
        reg = MetricsRegistry()
        assert cache.get(novel[-10], reg) is None            # dropped
        assert cache.get(("fp11999", "duplicate", None, False), reg) is None
        assert cache.get(novel[0], reg) is None              # long gone
        assert [reg.value(f"cache.miss.{r}") for r in (
            MissReason.EVICTED, MissReason.OPTIONS_CHANGE,
            MissReason.NEW_FINGERPRINT)] == [1, 1, 1]


class TestCounterSurfacing:
    def test_reason_counters_reach_instrumentation(self):
        """The second positional parameter is the registry to count
        into (``benchmarks/ledger/spans.py`` passes it positionally)."""
        from repro.obs import MetricsRegistry, current_registry

        reg = MetricsRegistry()
        cache = PlanCache()
        ambient = current_registry().value("cache.miss")
        cache.get(key(catalog.l1()), reg)
        assert reg.value("cache.miss") == 1
        assert reg.value(f"cache.miss.{MissReason.NEW_FINGERPRINT}") == 1
        assert current_registry().value("cache.miss") == ambient

    def test_reason_counters_reach_registry_without_instrumentation(self):
        from repro.obs import MetricsRegistry, use_registry

        reg = MetricsRegistry()
        cache = PlanCache()
        with use_registry(reg):
            cache.get(key(catalog.l1()))
        assert reg.value("cache.miss") == 1
        assert reg.value(f"cache.miss.{MissReason.NEW_FINGERPRINT}") == 1

    def test_reasons_partition_total_misses(self):
        from repro.core import Strategy, build_plan

        cache = PlanCache(maxsize=1)
        cache.get(key(catalog.l1()))
        cache.put(key(catalog.l1()), build_plan(catalog.l1()))
        cache.get(key(catalog.l1(), strategy=Strategy.DUPLICATE))
        cache.put(key(catalog.l2()), build_plan(catalog.l2()))
        cache.get(key(catalog.l1()))           # evicted by the l2 put
        assert sum(cache.miss_reasons.values()) == cache.misses


class TestTimingsSurface:
    def test_miss_reason_counter_in_timings_table(self, tmp_path, capsys):
        import io

        from repro.cli import main
        from repro.obs.export import main as export_main
        from repro.pipeline import PLAN_CACHE

        PLAN_CACHE.clear()
        path = tmp_path / "t.json"
        code = main(["report", "--loop", "L4", "--section", "plan",
                     "--trace", str(path)], out=io.StringIO())
        assert code == 0
        capsys.readouterr()
        assert export_main([str(path), "--as", "timings"]) == 0
        text = capsys.readouterr().out
        assert "counter cache.miss: 1" in text
        assert "counter cache.miss.new-fingerprint: 1" in text
